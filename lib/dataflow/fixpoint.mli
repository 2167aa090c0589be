(** Generic monotone dataflow framework over {!Graph.Digraph}.

    The classic worklist fixpoint, parameterised by a join-semilattice
    and a per-node transfer function, running forward (information flows
    along successor edges) or backward (along predecessor edges).  The
    propagation passes ({!Passes}) instantiate it with bitset lattices;
    anything with a finite-height join-semilattice fits.

    {2 Solution}

    [solve] computes the least array [v] with

    {[ v.(n)  ⊒  init n  ⊔  transfer n (⊔ {v.(p) | p flows into n}) ]}

    where "flows into" means predecessors in forward mode and successors
    in backward mode.  Values only ever ascend (the engine joins each
    new value with the old one), so the fixpoint terminates on any
    finite-height lattice even if [transfer] is accidentally
    non-monotone — at worst the answer is an over-approximation of the
    least fixpoint, never a diverging loop.

    {2 Scheduling}

    The graph is condensed into strongly-connected components
    ({!Graph.Scc}); SCCs are grouped into condensation levels (longest
    flow-path depth) and each level's independent SCCs are dispatched
    through {!Exec.scheduled_map} under {!cost_key}, so the adaptive
    cost model decides sequential vs parallel execution exactly as it
    does for FMEA injections.  Within one SCC the worklist is a FIFO
    seeded in ascending node order — fully deterministic, so the
    solution {e and} the iteration counts are bit-identical at every
    [SAME_JOBS] setting. *)

module type LATTICE = sig
  type t

  val bottom : t
  (** Identity of {!join}; the value carried by nodes nothing flows
      into.  Never mutated by the engine — instances may share one
      allocation. *)

  val join : t -> t -> t
  (** Least upper bound.  Must be pure: return a fresh value (or one of
      the arguments), never mutate either argument. *)

  val leq : t -> t -> bool
  (** Partial order; [leq a b] iff [join a b] = [b].  Drives the
      convergence test. *)
end

type direction = Forward | Backward

type stats = {
  iterations : int;  (** transfer-function applications until fixpoint *)
  sccs : int;  (** strongly-connected components in the graph *)
  levels : int;  (** condensation levels (parallel dispatch waves) *)
}

val solve :
  (module LATTICE with type t = 'a) ->
  ?jobs:int ->
  direction:direction ->
  init:(int -> 'a) ->
  transfer:(int -> 'a -> 'a) ->
  Graph.Digraph.t ->
  'a array * stats
(** [solve (module L) ~direction ~init ~transfer g] — the least
    fixpoint described above, one value per node index.  [init] seeds
    each node (facts generated {e at} the node); [transfer] maps the
    join of the inflowing values to the node's contribution.  Both must
    be pure and safe to call from worker domains. *)
