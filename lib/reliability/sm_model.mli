(** The safety mechanism model (DECISIVE Step 4b, Table III).

    Catalogues the safety mechanisms deployable per component type and
    failure mode, with diagnostic coverage and engineering cost.  SAME
    enumerates these in the search of {!module:Optimize}. *)

type mechanism = {
  sm_name : string;  (** e.g. ["ECC"], ["time-out watchdog"] *)
  component_type : string;  (** target component type *)
  failure_mode : string;  (** failure mode covered *)
  coverage_pct : float;  (** diagnostic coverage in [0,100] *)
  cost : float;  (** engineering cost, hours *)
}
[@@deriving eq, show]

type t

val empty : t

val of_mechanisms : mechanism list -> t

val mechanisms : t -> mechanism list

val applicable : t -> component_type:string -> failure_mode:string -> mechanism list
(** Mechanisms for the given (type, failure mode), case-insensitive and
    alias-aware on the type, sorted by descending coverage. *)

val table_iii : t
(** The paper's Table III: ECC for MCU RAM failures, 99 % coverage,
    2.0 hours. *)

val extended_catalogue : t
(** Table III plus the mechanisms the paper names elsewhere (time-out
    watchdog 70 %, dual-core lockstep 99 % from Table I) and stock
    electrical mechanisms (redundant diode, current-limit monitor...),
    used by the optimisation benches. *)

exception Format_error of string

val of_spreadsheet : Modelio.Spreadsheet.t -> t
(** Columns: Component, Failure_Mode, Safety_Mechanism, Cov., Cost(hrs)
    (header names tolerated case-insensitively, "Coverage"/"Cov" and
    "Cost" accepted).  Raises {!Format_error}, also on a coverage or cost
    that is not finite. *)

val to_spreadsheet : t -> Modelio.Spreadsheet.t
(** Numbers are written with {!Modelio.Float_text.to_string}, so
    {!of_spreadsheet} reads every coverage and cost back bit for bit. *)
