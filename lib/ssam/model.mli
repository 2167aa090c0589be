(** A complete SSAM model: the top-level container for packages of all four
    kinds, with global id lookup.

    The id space is flat across the whole model (the Base "cite" facility
    references by bare id), so {!index} builds one table over every element
    of every package. *)

type t = {
  model_meta : Base.meta;
  requirement_packages : Requirement.package list;
  hazard_packages : Hazard.package list;
  component_packages : Architecture.package list;
  mbsa_packages : Mbsa.package list;
}

type entity =
  | E_requirement of Requirement.element
  | E_hazard of Hazard.element
  | E_component of Architecture.component
  | E_arch_relationship of Architecture.relationship
  | E_io_node of Architecture.io_node
  | E_failure_mode of Architecture.failure_mode
  | E_failure_effect of Architecture.failure_effect
  | E_safety_mechanism of Architecture.safety_mechanism
  | E_function of Architecture.func
  | E_cause of Hazard.cause
  | E_package of Base.meta
  | E_mbsa_artifact of Mbsa.artifact_reference
  | E_mbsa_trace of Mbsa.trace_link

val create :
  ?requirement_packages:Requirement.package list ->
  ?hazard_packages:Hazard.package list ->
  ?component_packages:Architecture.package list ->
  ?mbsa_packages:Mbsa.package list ->
  meta:Base.meta ->
  unit ->
  t

val entity_meta : entity -> Base.meta

type index
(** Global id → entity table. *)

val index : t -> index
(** Builds the table; on duplicate ids the first occurrence wins (use
    {!Validate} to detect duplicates). *)

val lookup : index -> Base.id -> entity option

val iter_entities : (entity -> unit) -> index -> unit

val count_elements : t -> int
(** Total model elements across all packages — the size notion used in the
    paper's scalability evaluation (Table VI). *)

val components : t -> Architecture.component list
(** All components of all architecture packages, depth-first. *)

val find_component : t -> Base.id -> Architecture.component option
