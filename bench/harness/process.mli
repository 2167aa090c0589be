(** The simulated analyst following DECISIVE (substitutes the paper's two
    human safety professionals, whose sessions cannot be re-run).

    {!duration} plays out one full design session — aggregate reliability
    data, run FME(D)A, search and deploy safety mechanisms, manage the
    change across iterations — under a cost model and a participant
    profile.  {!manual_classification} produces the row-level judgements a
    human would make: the automated result plus *conservative* deviations
    (borderline modes marked safety-related "to be safe"), which is what
    RQ1 measures. *)

type system_profile = {
  system_name : string;
  element_count : int;  (** design elements, the paper's size measure *)
  analysable_components : int;  (** components with reliability data *)
  failure_mode_count : int;
  safety_related_count : int;  (** safety-related failure modes *)
}

val profile_of_table : name:string -> element_count:int -> Fmea.Table.t -> system_profile

type session = {
  minutes : float;
  iterations : int;
  breakdown : (string * float) list;  (** activity → minutes, descending *)
}

val duration :
  rng:Assess.Rng.t ->
  mode:Cost_model.mode ->
  profile:Cost_model.profile ->
  iterations:int ->
  system_profile ->
  session
(** Deterministic given the rng state; a ±5 % lognormal-ish factor models
    day-to-day variation. *)

val draw_iterations : rng:Assess.Rng.t -> mode:Cost_model.mode -> int
(** Manual designers iterate less (2–6 draws skewed low — iterations are
    expensive); assisted ones explore more (2–6 skewed high).  Matches the
    spread in the paper's Table V. *)

val manual_classification :
  rng:Assess.Rng.t -> profile:Cost_model.profile -> Fmea.Table.t -> Fmea.Table.t
(** Row-level flips only on components that already have a safety-related
    mode, so the *component-level* conclusions agree with the automated
    analysis — exactly the paper's observation that "the safety-related
    components for both System A and System B are all identified
    correctly by both participants". *)
