(** Quantitative fault-tree analysis.

    Basic-event probabilities come from their FIT rates over a mission
    time: [p = 1 - exp(-λ t)] with λ in failures/hour.  Events without a
    rate can be given explicitly. *)

type probabilities = (string * float) list
(** Basic-event id → probability in [0,1]. *)

val event_probabilities :
  ?mission_hours:float -> Fault_tree.t -> probabilities
(** From each event's [rate_fit] (default mission 10_000 h — roughly a
    vehicle lifetime of operation); events without a rate get probability
    0 and should be overridden. *)

val top_probability_exact :
  Fault_tree.t -> probabilities -> float
(** Exact top-event probability by Shannon expansion over the
    {!Bdd} of the tree: one memoised pass on the canonical diagram, so
    basic events repeated under several gates are handled {e exactly}. *)

val lookup : probabilities -> string -> float
(** The probability of an event id, 0 when absent; the first binding of
    an id wins, as with [List.assoc].  Build it once and apply it many
    times: it hashes the list. *)

val birnbaum : Fault_tree.t -> probabilities -> (string * float) list
(** BDD-based Birnbaum importance per basic event:
    [P(top | e) - P(top | ¬e)], descending — see {!Bdd.birnbaum}. *)

val fussell_vesely :
  Fault_tree.t -> probabilities -> (string * float) list
(** BDD-based Fussell–Vesely (fractional) importance per basic event:
    the share of top-event probability removed by making the event
    perfectly reliable — exact, unlike the rare-event approximation of
    {!importance}.  Empty when the top probability is 0. *)

val rare_event_bound : Cut_sets.cut_set list -> probabilities -> float
(** Σ over minimal cut sets of Π p — the standard upper bound, tight for
    small probabilities. *)

val esary_proschan : Cut_sets.cut_set list -> probabilities -> float
(** [1 - Π (1 - Π p)] — a tighter upper bound than rare-event. *)

val importance : Cut_sets.cut_set list -> probabilities -> (string * float) list
(** Fussell-Vesely importance per basic event: share of the rare-event sum
    contributed by cut sets containing the event; descending. *)
