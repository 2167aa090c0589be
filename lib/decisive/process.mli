(** The DECISIVE workflow engine (Fig. 1).

    Five steps, two swim lanes of artefacts, iterated until the design
    meets its target integrity level.  The engine enforces step ordering
    and artefact prerequisites, and records everything produced — the
    record feeds the MBSA package and the assurance case. *)

type step =
  | Step1_plan
  | Step2_design
  | Step3_reliability
  | Step4a_evaluate
  | Step4b_refine  (** optional, loops back to 4a *)
  | Step5_safety_concept
[@@deriving eq, show]

type artifact_kind =
  | System_definition
  | Function_requirements
  | Hazard_log
  | Safety_requirements
  | Architectural_design
  | Component_reliability_model
  | Component_safety_analysis_model
  | Architecture_metrics
  | Safety_mechanism_model
  | Safety_concept
[@@deriving eq, show]

type artifact = {
  kind : artifact_kind;
  label : string;
  produced_at_step : step;
  produced_at_iteration : int;
}
[@@deriving eq, show]

type t
(** A process instance (immutable; each transition returns a new value). *)

type error =
  | Wrong_order of { current : step option; attempted : step }
  | Missing_prerequisite of { step : step; needs : artifact_kind }
  | Not_acceptably_safe of string
      (** Step 5 attempted while the latest metrics miss the target *)
[@@deriving show]

val start : name:string -> target:Ssam.Requirement.integrity_level -> t

val iteration : t -> int

val artifacts : t -> artifact list

val record_spfm : t -> float -> t
(** Attach the SPFM of the latest Step 4a evaluation. *)

val latest_spfm : t -> float option

val perform :
  t -> step -> produces:(artifact_kind * string) list -> (t, error) result
(** Execute a step: checks ordering (1 → 2 → 3 → 4a → (4b → 4a)* → 5) and
    that prerequisite artefacts exist; records the produced artefacts.
    Step 5 additionally requires {!latest_spfm} to meet the target. *)

val iterate : t -> t
(** Start the next DECISIVE iteration (after a design change): the step
    pointer rewinds to allow Step 2 onwards again; artefacts are kept
    (they will be superseded by newer ones of the same kind). *)

val is_complete : t -> bool
(** A Step-5 safety concept exists. *)

val pp_history : Format.formatter -> t -> unit
