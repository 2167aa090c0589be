(** Hash-consed ROBDD kernel for fault trees — the xSAP-style engine
    shared by every cut-set producer in the repo.

    A compiled tree holds one reduced ordered BDD of the structure
    function over its basic events.  Because the diagram's fault trees
    are coherent (built from AND/OR/k-oo-n over positive events only),
    the BDD is monotone and its prime implicants are exactly the minimal
    cut sets; they are extracted as a Minato-style ZBDD (subsumption-free
    union), so counting and cardinality filtering never materialise the
    full set list.

    Everything downstream rides on this kernel: {!Cut_sets.minimal}'s
    [`Bdd] engine, {!Quant.top_probability_exact} (Shannon expansion —
    exact on repeated events, unlike the legacy independent-copies
    recursion), the Birnbaum/Fussell–Vesely importance measures, and the
    cardinality-k critical-set queries that re-derive {!Fmea.Path_fmea}
    and [Dataflow.Diagnose] results. *)

type t
(** A fault tree compiled to a ROBDD: unique table, memoised [ite],
    cached minimal-cut-set ZBDD. *)

val build : ?order:string list -> Fault_tree.t -> t
(** Compile [tree].  [order] lists basic-event ids highest (tested
    first) to lowest; events absent from [order] follow in first-DFS-
    occurrence order, ids not in the tree are ignored.  The default
    order is first DFS occurrence, which is near-optimal for trees;
    graph-lowered trees pass the {!Graph.Dominators.order_hint}-derived
    order instead.  Shared subtrees (physically equal nodes, as produced
    by {!From_ssam.of_structure}) are compiled once. *)

val var_count : t -> int

val node_count : t -> int
(** Distinct decision nodes allocated in the unique table (terminals
    excluded) — the usual BDD size measure. *)

val constant : t -> bool option
(** [Some v] when the structure function is the constant [v] (e.g. a
    tautological top event); [None] for a genuine function. *)

val minimal_cut_sets : t -> string list list
(** All minimal cut sets, each sorted lexicographically, the list sorted
    by cardinality then lexicographically — the same convention as
    {!Cut_sets.minimal}, which the QCheck differential tests rely on. *)

val minimal_cut_set_count : t -> float
(** Number of minimal cut sets, counted on the ZBDD without
    materialising them ([float]: the count can exceed [max_int]). *)

val minimal_critical_sets : ?max_cardinality:int -> t -> string list list
(** The S#-style query: minimal cut sets of cardinality ≤
    [max_cardinality] (default: no bound), filtered on the ZBDD before
    materialisation.  Cardinality 1 yields the single points of failure,
    cardinality 2 adds the latent pairs. *)

val probability : t -> (string -> float) -> float
(** Top-event probability by Shannon expansion — one memoised pass over
    the BDD, exact even when basic events repeat under several gates. *)

val birnbaum : t -> (string -> float) -> (string * float) list
(** Birnbaum importance per variable: [P(top | e occurs) - P(top | e
    absent)], descending (ties by name).  On the monotone diagram this
    equals [P(top|e=1 ∧ ¬top|e=0)], which is computed for every
    variable in one pass without subtraction, so it stays exact even
    where the importance is many orders of magnitude below P(top).
    Variables reduced away (irrelevant events) report 0. *)

val fussell_vesely : t -> (string -> float) -> (string * float) list
(** Fussell–Vesely (fractional) importance per variable: the share of
    top-event probability that vanishes when the event is perfectly
    reliable, [1 - P(top | e absent)/P(top)], computed as
    [p_e · birnbaum_e / P(top)]; descending.  [[]] when the top
    probability is 0. *)

val importances :
  t -> (string -> float) -> (string * float) list * (string * float) list
(** [(birnbaum t p, fussell_vesely t p)] from one per-variable pass. *)
