(** SSAM Hazard module (Fig. 4).

    [HazardElement]s model hazardous situations, their causes and the
    control measures that mitigate them; they are organised in
    [HazardPackage]s.  Per the paper's footnote, the module does not adhere
    100 % to ISO 26262 so it can stay domain-generic: severity and
    probability are open scales plus an optional controllability for
    automotive-style risk grading (see {!module:Hara.Risk}). *)

type severity =
  | S0  (** no injuries *)
  | S1  (** light/moderate injuries *)
  | S2  (** severe injuries, survival probable *)
  | S3  (** life-threatening/fatal injuries *)
[@@deriving eq, ord, show]

type exposure = E1 | E2 | E3 | E4 [@@deriving eq, ord, show]

type controllability = C1 | C2 | C3 [@@deriving eq, ord, show]

type cause = {
  cause_meta : Base.meta;
  description : string;
}
[@@deriving eq, show]

type effectiveness = {
  verified : bool;
  effectiveness_pct : float;  (** [0, 100] — Effectiveness of Verification. *)
}
[@@deriving eq, show]

type control_measure = {
  cm_meta : Base.meta;
  safety_decision : string;  (** rationale for deploying this measure *)
  validation_plan : string;
  effectiveness : effectiveness option;
  mitigates : Base.id list;  (** hazardous situation ids *)
}
[@@deriving eq, show]

type hazardous_situation = {
  hs_meta : Base.meta;
  severity : severity;
  exposure : exposure option;
  controllability : controllability option;
  probability : float option;  (** per-hour occurrence probability, if known *)
  causes : cause list;
}
[@@deriving eq, show]

type element =
  | Situation of hazardous_situation
  | Measure of control_measure
[@@deriving eq, show]

type package_interface = { interface_meta : Base.meta; exports : Base.id list }
[@@deriving eq, show]

type package = {
  package_meta : Base.meta;
  elements : element list;
  interfaces : package_interface list;
}
[@@deriving eq, show]

val cause : meta:Base.meta -> string -> cause

val situation :
  ?exposure:exposure ->
  ?controllability:controllability ->
  ?probability:float ->
  ?causes:cause list ->
  meta:Base.meta ->
  severity:severity ->
  unit ->
  hazardous_situation

val measure :
  ?safety_decision:string ->
  ?validation_plan:string ->
  ?effectiveness:effectiveness ->
  ?mitigates:Base.id list ->
  meta:Base.meta ->
  unit ->
  control_measure

val package :
  ?interfaces:package_interface list ->
  meta:Base.meta ->
  element list ->
  package

val element_id : element -> Base.id

val element_meta : element -> Base.meta

val situations : package -> hazardous_situation list

val measures : package -> control_measure list

val measures_for : package -> Base.id -> control_measure list
(** Control measures whose [mitigates] list contains the given situation. *)

val unmitigated : package -> hazardous_situation list
(** Situations with no control measure in the same package. *)
