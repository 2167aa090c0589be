(** Failure injection on netlists (the paper's Sec. IV-D "the principle of
    the automated FMEA is based on failure injection").

    A fault transforms one element of a netlist; the transformed netlist
    is re-analysed and its sensor readings compared with the golden run. *)

type t =
  | Open_circuit  (** element stops conducting *)
  | Short_circuit  (** element replaced by a near-zero resistance *)
  | Stuck_value of float  (** a source stuck at the given value *)
  | Parameter_shift of float  (** primary parameter multiplied by the factor *)
[@@deriving eq, show]

val to_string : t -> string

exception Not_applicable of { element : string; fault : t; reason : string }

val faulted_kind : Element.kind -> t -> element:string -> Element.kind
(** The element kind a fault transforms the given kind into — the single
    source of truth shared by {!inject} (netlist rewriting) and the
    low-rank re-solve path in {!Dc.inject}.  Raises {!Not_applicable} as
    {!inject}. *)

val inject : Netlist.t -> element_id:string -> t -> Netlist.t
(** Raises [Not_found] for an unknown element and {!Not_applicable} for a
    meaningless combination (e.g. [Stuck_value] on a resistor,
    [Parameter_shift] on a sensor). *)

val of_failure_mode_name : string -> t option
(** Default mapping from reliability-model failure-mode names to faults:
    ["open"]→open, ["short"]→short, names containing ["loss"], ["fail"]
    or ["stuck"]→open (loss of function), ["drift"]/["degraded"]→
    [Parameter_shift 2.0].  Case-insensitive; [None] when no rule
    matches — the caller should then warn, mirroring Algorithm 1's
    warning branch. *)
