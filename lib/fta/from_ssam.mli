(** Fault-tree generation from SSAM architectures.

    For a composite component, the top event "output unreachable" holds
    exactly when every input→output path is broken, and a path is broken
    when some component on it loses function:

    {v TOP = AND over paths p ( OR over components c ∈ p  loss(c) ) v}

    Basic events are the loss-of-function failure modes of leaf
    components, with rates from FIT × distribution.  Components whose
    functions declare redundant tolerances become k-out-of-N gates.

    Consistency theorem (tested): the singleton minimal cut sets of the
    generated tree are exactly the safety-related components found by
    {!Fmea.Path_fmea} — the basis of the HiP-HOPS-style cross-check in
    {!Fmea_from_fta}. *)

exception No_paths of string
(** The composite has no input→output paths to analyse. *)

exception Cyclic of string list
(** {!of_structure} found a dependency cycle among the child
    connections; the payload lists the children on (or blocked behind)
    the cycle.  Fall back to the path-based {!generate}, which handles
    cyclic diagrams via simple-path enumeration. *)

val generate : Ssam.Architecture.component -> Fault_tree.t
(** The AND-over-paths construction by explicit path enumeration.
    Raises {!No_paths}; exponential on wide diagrams (it inherits the
    {!Fmea.Path_fmea.max_paths} cap) but correct on cyclic ones. *)

val of_structure : Ssam.Architecture.component -> Fault_tree.t
(** The Safety_Profile five-step pipeline: (1) index the components
    into the child connection graph, (2) instantiate each component's
    failure-logic template ([component loss], redundant tolerances as
    k-out-of-N votes), (3) dependency-sort the connections,
    (4) assemble bottom-up — [U(v) = loss(v) ∨ ⋀ preds U(p)] with
    [U(source) = loss(source)] and top [⋀ sinks U(sink)] — and
    (5) hand off to {!Quant} for quantification.  On a DAG the result
    denotes the same boolean function as {!generate} (QCheck-tested:
    identical minimal cut sets) but its size is linear in the graph
    rather than in the path count.  Raises {!No_paths} when no
    source→sink structure exists and {!Cyclic} on cyclic diagrams. *)

val event_order : Ssam.Architecture.component -> string list
(** Basic-event ordering hint for {!Bdd.build}: children sorted along
    dominator chains from the sources ({!Graph.Dominators.order_hint}),
    expanded to their template events — keeps serially-dependent events
    adjacent, where BDDs of series-parallel functions stay small. *)

val of_diagram :
  reliability:Reliability.Reliability_model.t ->
  Blockdiag.Diagram.t ->
  Fault_tree.t
(** {!of_structure} over the functional root of an electrical block
    diagram ({!Blockdiag.Transform.functional_root}): sources feed,
    loads/controllers sink, grounds drop out.  Same exceptions as
    {!of_structure}. *)

val lower_diagram :
  reliability:Reliability.Reliability_model.t ->
  Blockdiag.Diagram.t ->
  (Fault_tree.t * [ `Structural | `Paths ], string) result
(** The lowering [same fta] and [same assess] run: {!of_diagram}, or,
    on a cyclic diagram, {!generate} over the same functional root
    ([`Paths]).  [Error] names the composite without input→output
    paths. *)

val loss_rate_fit : Ssam.Architecture.component -> float
(** Σ FIT × distribution over the component's loss-of-function modes (the
    whole FIT when it has no failure modes — pessimistic default). *)
