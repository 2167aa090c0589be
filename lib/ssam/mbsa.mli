(** SSAM MBSA (Model-Based Systems Assurance) module (Fig. 6).

    The MBSA package is the federation point: it aggregates the requirement,
    hazard and architecture packages of one system, records the analysis
    artefacts produced by SAME across DECISIVE iterations, and holds the
    traceability links that tie analysis results back to requirements and
    hazards (and onwards into an assurance case, Sec. V-C). *)

type analysis_kind = FMEA | FMEDA | FTA | Other_analysis of string
[@@deriving eq, show]

type artifact_reference = {
  ar_meta : Base.meta;
  kind : analysis_kind;
  location : string;  (** where the generated artefact lives (file/URI) *)
  iteration : int;  (** DECISIVE iteration that produced it *)
}
[@@deriving eq, show]

type trace_kind =
  | Supports  (** analysis result supports a requirement/claim *)
  | Addresses  (** design element addresses a hazard *)
  | Allocates  (** requirement allocated to a component *)
  | DerivedFrom
[@@deriving eq, show]

type trace_link = {
  tl_meta : Base.meta;
  trace_kind : trace_kind;
  trace_source : Base.id;
  trace_target : Base.id;
}
[@@deriving eq, show]

type package = {
  package_meta : Base.meta;
  requirement_packages : Base.id list;
  hazard_packages : Base.id list;
  component_packages : Base.id list;
  artifacts : artifact_reference list;
  traces : trace_link list;
}
[@@deriving eq, show]

val artifact_reference :
  ?iteration:int ->
  meta:Base.meta ->
  kind:analysis_kind ->
  location:string ->
  unit ->
  artifact_reference

val trace_link :
  meta:Base.meta ->
  kind:trace_kind ->
  source:Base.id ->
  target:Base.id ->
  trace_link

val package :
  ?requirement_packages:Base.id list ->
  ?hazard_packages:Base.id list ->
  ?component_packages:Base.id list ->
  ?artifacts:artifact_reference list ->
  ?traces:trace_link list ->
  meta:Base.meta ->
  unit ->
  package

val add_trace : package -> trace_link -> package

val latest_artifact : package -> analysis_kind -> artifact_reference option
(** Artefact of the given kind with the highest iteration number. *)
