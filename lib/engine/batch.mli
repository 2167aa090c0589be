(** Batch-fleet analysis: N design variants through one warm pipeline.

    The S#-style design-exploration workload — six variants of one system
    analysed as a single campaign — is the shape the engine's sharing is
    built for: variants reuse golden factorisations by structural netlist
    fingerprint, memoised tables by content fingerprint, and all
    remaining injections run as one large scheduled batch
    ({!Pipeline.injection_fmea_fleet}).  This module adds the per-variant
    and fleet summaries the CLI and bench report. *)

type fmea_entry = {
  b_label : string;  (** caller-supplied variant label (e.g. file name) *)
  b_system : string;  (** analysed system name (diagram name) *)
  b_rows : int;
  b_safety_related : int;  (** rows classified safety-related *)
  b_spfm_pct : float;
  b_single_point_fit : float;  (** residual single-point FIT *)
  b_table : Fmea.Table.t;  (** the full per-variant table *)
}

type fleet_summary = {
  f_entries : fmea_entry list;  (** one per variant, in input order *)
  f_rows : int;
  f_safety_related : int;
  f_distinct_designs : int;
      (** distinct structural netlist fingerprints in the fleet — the
          number of golden factorisations a cold fleet needs *)
}

val run_fmea :
  Pipeline.t ->
  options:Fmea.Injection_fmea.options ->
  (string * Blockdiag.Diagram.t) list ->
  Reliability.Reliability_model.t ->
  fleet_summary
(** {!Pipeline.injection_fmea_fleet} plus summaries.  Each entry's table
    is bit-identical to a standalone {!Pipeline.injection_fmea} of that
    variant. *)

val pp_summary : Format.formatter -> fleet_summary -> unit
(** Per-variant rows plus a fleet-total line. *)

val to_csv : fleet_summary -> string list list
(** Machine-readable fleet summary (header + one row per variant). *)
