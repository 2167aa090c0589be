(** Automated FMEA on SSAM models — the paper's Algorithm 1.

    For a composite component, a loss-of-function failure mode of a
    child is a *single-point fault* (safety-related) when the child lies
    on **every** input→output path through the child connection graph —
    losing it makes the output unreachable.  Non-loss-like modes get a
    warning (Algorithm 1's else-branch).  The algorithm recurses into
    composite children.

    The "on every path" question is answered with the {!Graph}
    kernels: the child graph gets a virtual super-source feeding every
    input and a virtual super-sink fed by every output, and a child is
    on all paths iff it dominates the super-sink (Lengauer–Tarjan, near
    linear).  This is exact on any diagram — cyclic ones included — and
    replaces the historical simple-path enumeration, which was
    exponential and gave up (capped at {!max_paths}) on wide diagrams.
    The enumeration survives as {!paths}: the path lists the FTA bridge
    consumes, and what the test suite's enumeration oracle classifies
    by.

    Extension (documented in DESIGN.md): children whose every
    {!Ssam.Architecture.func} declares a redundant tolerance (1oo2, 1oo3,
    2oo3) are never single points — a single channel loss is tolerated —
    and their loss-like modes are reported not-safety-related with a
    note. *)

type options = {
  exclude : string list;
      (** component ids exempt from analysis (the paper's "assume DC1 is
          stable") *)
  recurse : bool;  (** analyse composite children too (default true) *)
}

val default_options : options

val max_paths : int
(** Cap on the {!paths} enumeration (20 000 simple paths).  The
    dominator-based {!analyse} has no cap. *)

exception Too_many_paths
(** Raised by {!paths} when the enumeration exceeds {!max_paths}. *)

val paths :
  Ssam.Architecture.component -> Ssam.Architecture.component list list
(** All simple input→output paths through [component]'s children, each as
    the list of traversed children (boundary endpoints omitted).  The
    input/output boundary is defined by connections whose endpoint is the
    composite itself; when there are none, sources are children without
    incoming edges and sinks are children without outgoing edges.
    Raises {!Too_many_paths} beyond {!max_paths}. *)

val child_structure :
  Ssam.Architecture.component -> Graph.Digraph.t * int list * int list
(** The interned child connection graph together with its resolved
    boundary, [(graph, sources, sinks)] — exactly the structure every
    path/dominator query here runs on.  Exposed so the FTA lowering
    ({!Fta.From_ssam}[.of_structure]) assembles its fault trees over the
    {e same} graph and boundary semantics, which is what makes the
    cardinality-1 critical sets provably comparable with
    {!single_points}. *)

val single_points : Ssam.Architecture.component -> string list
(** Ids of the children lying on every input→output path (sorted) —
    the dominator query by itself, without building a table.  [[]] when
    the component has no input→output path. *)

val analyse :
  ?options:options -> Ssam.Architecture.component -> Table.t
(** FMEA table for one composite component, classified via dominators:
    exact on every model, no path cap. *)

val analyse_package :
  ?options:options -> Ssam.Architecture.package -> Table.t
(** Analyses every top-level composite; a package whose top level is a
    flat block list (with package-level relationships) is wrapped in a
    synthetic root first. *)

val analyse_package_with :
  analyse_component:(Ssam.Architecture.component -> Table.t) ->
  Ssam.Architecture.package ->
  Table.t
(** {!analyse_package} with the per-composite analysis supplied by the
    caller — the seam the incremental engine uses to memoise untouched
    packages' path sets by subtree fingerprint.  [analyse_component]
    receives each top-level composite (and the synthetic root wrapping
    any flat remainder) and must behave like {!analyse}. *)
