(** Minimal cut sets, read off the compiled decision diagram.

    A cut set is a set of basic-event ids whose joint occurrence raises
    the top event; it is minimal when no proper subset is a cut set.
    Singleton minimal cut sets are exactly the single-point faults that
    FMEA looks for — the bridge {!Fmea_from_fta} exploits. *)

type cut_set = string list
(** Sorted, duplicate-free basic-event ids. *)

type engine = [ `Auto | `Bdd ]
(** Synonyms: both compile the tree to a {!Bdd.t} and read the cut sets
    off its ZBDD, with no cap on their number.  [`Auto] is the default
    and is kept so that existing callers need not change. *)

val minimal : ?engine:engine -> Fault_tree.t -> cut_set list
(** Sorted by size then lexicographically — the convention of
    {!Bdd.minimal_cut_sets}, which this is.  K-out-of-N gates are
    composed as a threshold recursion, never expanded into subsets. *)

val singletons : cut_set list -> string list
(** Events forming size-1 minimal cut sets. *)

val order_histogram : cut_set list -> (int * int) list
(** [(cut-set order, count)] pairs, ascending order. *)
