(** FME(D)A result tables — the "Component Safety Analysis Model" of
    DECISIVE Step 4a and the Excel-style output engineers consume
    (paper Table IV). *)

type row = {
  component : string;
  component_fit : float;  (** total FIT of the component *)
  failure_mode : string;
  distribution_pct : float;
  safety_related : bool;
  impact : string;  (** free text, e.g. "CS1 reading lost" or "DVF" *)
  safety_mechanism : string option;
  sm_coverage_pct : float option;
  single_point_fit : float;
      (** residual single-point failure rate of this mode: FIT share when
          safety-related (after diagnostic coverage), 0 otherwise *)
  warning : string option;
}
[@@deriving eq, show]

type t = {
  system_name : string;
  rows : row list;  (** grouped by component, in analysis order *)
}
[@@deriving eq, show]

val make_row :
  ?impact:string ->
  ?safety_mechanism:string ->
  ?sm_coverage_pct:float ->
  ?warning:string ->
  component:string ->
  component_fit:float ->
  failure_mode:string ->
  distribution_pct:float ->
  safety_related:bool ->
  unit ->
  row
(** Computes [single_point_fit] from the inputs:
    [fit * dist/100 * (1 - cov/100)] when safety-related, else 0. *)

val components : t -> string list
(** Distinct component names, first-appearance order. *)

val safety_related_components : t -> string list
(** Components with at least one safety-related failure mode. *)

val rows_for : t -> string -> row list

val warnings : t -> (string * string) list
(** [(component, warning)] pairs. *)

val to_csv : ?repeat_component_cells:bool -> t -> Modelio.Csv.t
(** Paper Table IV column layout: Component, FIT, Safety_Related,
    Failure_Mode, Distribution, Safety_Mechanism, SM_Coverage,
    Single_Point_Failure_Rate.  By default continuation rows leave the
    Component and FIT cells blank, as the paper's table does; pass
    [~repeat_component_cells:true] for machine-consumed exports so each
    row is self-contained (the assurance-case SPFM query relies on it). *)

val pp : Format.formatter -> t -> unit
(** Aligned text rendering in the paper's table style. *)

val merge_sensitivity : golden:t -> other:t -> float
(** Fraction (in percent) of rows that disagree between two analyses of
    the same system — the comparison metric of evaluation RQ1.  Rows are
    matched by (component, failure mode) and disagree when either the
    safety-related verdict or the judged effect differs (the paper
    attributes observed differences to "opinions on the effects of
    failing components"); unmatched rows count as differences. *)
