(** The text report of [same fta], written by the CLI and returned by
    the daemon: the tree, its minimal cut sets, the BDD-exact top-event
    probability and the rare-event bound over a 10,000 h mission, and
    the five highest Birnbaum and Fussell–Vesely importances, all read
    off the compiled {!Bdd.t}.  No wall-clock figures: the text is a
    pure function of the tree and the arguments. *)

val text :
  ?max_cardinality:int -> route:[ `Structural | `Paths ] -> Fault_tree.t -> string
(** [max_cardinality] lists only the cut sets of at most that many
    events (the bound still sums them all); [`Paths] adds the note that
    a cyclic diagram was lowered by path enumeration
    ({!From_ssam.lower_diagram}). *)
