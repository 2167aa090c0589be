(** Scaled-up inputs for the parallel kernels' tests and the bench. *)

val netlist : int -> Circuit.Netlist.t -> Circuit.Netlist.t
(** [netlist copies base] is [copies] independent instances of [base] in
    one netlist named ["psu-array"]: copy [i] suffixes every element id
    and every node but ground with [_i], so only ground is shared.  The
    MNA system and the injection count both scale with [copies]. *)

val catalogue : int -> Fmea.Table.t * Reliability.Sm_model.t
(** [catalogue n] is a table of [n + 1] safety-related components, each
    with one failure mode of 100 FIT, and a catalogue offering three
    mechanisms (60 %, 90 %, 99 % coverage) for each of the first [n] and
    one (95 %) for the last: [2 * 4^n] combinations for the search. *)
