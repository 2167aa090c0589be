(** SSAM Architecture module (Fig. 5).

    Block-based system designs: nested {!component}s connected through
    {!io_node}s by {!relationship}s, with per-component failure modes,
    failure effects and deployable safety mechanisms.  This is the input to
    the automated FME(D)A of {!module:Fmea}. *)

type component_type = System | Hardware | Software [@@deriving eq, ord, show]

type tolerance = OneOoOne | OneOoTwo | OneOoThree | TwoOoThree
(** Voting/tolerance architecture of a {!func}: 1oo1, 1oo2, 1oo3, 2oo3. *)
[@@deriving eq, ord, show]

val tolerance_to_string : tolerance -> string
(** ["1oo1"], ["1oo2"], ["1oo3"], ["2oo3"]. *)

val tolerance_of_string : string -> tolerance option

type direction = Input | Output | Bidirectional [@@deriving eq, ord, show]

type io_node = {
  io_meta : Base.meta;
  direction : direction;
  value : float option;  (** last known / nominal value carried by the node *)
  lower_limit : float option;
  upper_limit : float option;
}
[@@deriving eq, show]

(** Nature of a failure mode.  Algorithm 1 treats loss-of-function-like
    modes (open circuits, stuck-silent, total loss) as path-breaking;
    other natures get a warning instead of automated classification. *)
type failure_nature =
  | Loss_of_function
  | Degraded
  | Erroneous  (** wrong-but-present output, e.g. a short or value jitter *)
  | Other of string
[@@deriving eq, show]

type failure_impact =
  | DVF  (** directly violates the safety goal *)
  | IVF  (** indirectly violates the safety goal *)
  | Safe_impact
[@@deriving eq, show]

type failure_effect = {
  fe_meta : Base.meta;
  effect_description : string;
  impact : failure_impact;
  affected_components : Base.id list;  (** via the Base "cite" facility *)
}
[@@deriving eq, show]

type failure_mode = {
  fm_meta : Base.meta;
  nature : failure_nature;
  distribution_pct : float;  (** share of the component's FIT, in [0,100] *)
  fm_cause : string;
  fm_exposure : string;
  hazards : Base.id list;  (** cited hazardous situations *)
  effects : failure_effect list;
}
[@@deriving eq, show]

type safety_mechanism = {
  sm_meta : Base.meta;
  coverage_pct : float;  (** diagnostic coverage in [0,100] *)
  sm_cost : float;  (** engineering cost, hours *)
  covers : Base.id list;  (** failure-mode ids this SM diagnoses *)
}
[@@deriving eq, show]

type func = {
  fn_meta : Base.meta;
  tolerance : tolerance;
}
[@@deriving eq, show]

type component = {
  c_meta : Base.meta;
  component_type : component_type;
  fit : float;  (** Failure-In-Time, 1 FIT = 1e-9 failures/hour *)
  integrity : Requirement.integrity_level option;
  safety_related : bool;
  dynamic : bool;  (** future-work runtime-monitoring flag *)
  io_nodes : io_node list;
  failure_modes : failure_mode list;
  safety_mechanisms : safety_mechanism list;
  functions : func list;
  children : component list;  (** nested sub-components *)
  connections : relationship list;
      (** relationships between this component's children/IO nodes *)
}

and relationship = {
  rel_meta : Base.meta;
  from_component : Base.id;
  from_node : Base.id option;
  to_component : Base.id;
  to_node : Base.id option;
}
[@@deriving eq, show]

type element = Component of component | Relationship of relationship
[@@deriving eq, show]

type package_interface = { interface_meta : Base.meta; exports : Base.id list }
[@@deriving eq, show]

type package = {
  package_meta : Base.meta;
  elements : element list;
  interfaces : package_interface list;
}
[@@deriving eq, show]

(** {1 Constructors} *)

val io_node :
  ?value:float ->
  ?lower_limit:float ->
  ?upper_limit:float ->
  meta:Base.meta ->
  direction ->
  io_node

val failure_effect :
  ?affected:Base.id list ->
  ?description:string ->
  meta:Base.meta ->
  failure_impact ->
  failure_effect

val failure_mode :
  ?cause:string ->
  ?exposure:string ->
  ?hazards:Base.id list ->
  ?effects:failure_effect list ->
  meta:Base.meta ->
  nature:failure_nature ->
  distribution_pct:float ->
  unit ->
  failure_mode

val safety_mechanism :
  ?covers:Base.id list ->
  meta:Base.meta ->
  coverage_pct:float ->
  cost:float ->
  unit ->
  safety_mechanism

val func : meta:Base.meta -> tolerance -> func

val component :
  ?component_type:component_type ->
  ?fit:float ->
  ?integrity:Requirement.integrity_level ->
  ?safety_related:bool ->
  ?dynamic:bool ->
  ?io_nodes:io_node list ->
  ?failure_modes:failure_mode list ->
  ?safety_mechanisms:safety_mechanism list ->
  ?functions:func list ->
  ?children:component list ->
  ?connections:relationship list ->
  meta:Base.meta ->
  unit ->
  component

val relationship :
  ?from_node:Base.id ->
  ?to_node:Base.id ->
  meta:Base.meta ->
  from_component:Base.id ->
  to_component:Base.id ->
  unit ->
  relationship

val package :
  ?interfaces:package_interface list ->
  meta:Base.meta ->
  element list ->
  package

(** {1 Accessors and traversals} *)

val component_id : component -> Base.id

val component_name : component -> string

val top_components : package -> component list

val relationships : package -> relationship list

val iter_components : (component -> unit) -> component -> unit
(** Pre-order traversal of the component and all its descendants. *)

val fold_components : ('a -> component -> 'a) -> 'a -> component -> 'a

val find_component : component -> Base.id -> component option
(** Search the component tree (including the root) by id. *)

val find_in_package : package -> Base.id -> component option

val count_elements : component -> int
(** Number of model elements in the subtree: components, IO nodes, failure
    modes, effects, safety mechanisms, functions and connections — the
    element-count notion used by the paper's evaluation (Sec. VI). *)

val count_package_elements : package -> int

val leaf_components : component -> component list
(** Descendants with no children (the root itself if childless). *)

val is_loss_like : failure_nature -> bool
(** [true] for [Loss_of_function]; Algorithm 1's "loss of function or
    similar nature" also admits [Degraded] below 100 % capability?  No — the
    paper's criterion is path unreachability, which only total loss causes,
    so only [Loss_of_function] qualifies. *)

val inputs : component -> io_node list

val outputs : component -> io_node list

val total_fit : component -> float
(** Sum of leaf FIT values in the subtree. *)
