(** Cut-set algebra for the reference routes: the minimisation step of
    MOCUS ({!Mocus}) and of the direct pair enumeration
    ({!Direct_cut_sets}).  The library reads its cut sets off a decision
    diagram ({!Fta.Cut_sets.minimal}) and needs neither. *)

val normalize : string list -> Fta.Cut_sets.cut_set
(** Sort and deduplicate. *)

val minimize : Fta.Cut_sets.cut_set list -> Fta.Cut_sets.cut_set list
(** Drop every set with a proper (or equal, earlier) subset present.
    Inputs must be {!normalize}d.  Each pairwise check is a sorted-list
    merge with an early length cutoff — O(shorter set) instead of
    O(|a| * |b|) membership scans. *)
