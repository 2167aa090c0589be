(** MOCUS: minimal cut sets by bottom-up DNF expansion — the reference
    the BDD engine ({!Fta.Cut_sets.minimal}) is checked against. *)

val minimal : ?max_sets:int -> Fta.Fault_tree.t -> Fta.Cut_sets.cut_set list
(** Sorted by size then lexicographically, like {!Fta.Cut_sets.minimal}.
    K-out-of-N gates are expanded into the OR of all [k]-subsets.
    Raises [Invalid_argument] as soon as an intermediate expansion holds
    more than [max_sets] (default 100_000) sets. *)
