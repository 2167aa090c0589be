(** Fault trees compiled to a bit-parallel instruction tape.

    The Monte-Carlo kernel never walks the tree: {!compile} flattens the
    unified IR into a straight-line array of AND/OR/at-least word
    operations over registers, each register carrying one trial per bit.
    One {!eval} pass then decides the top event for {!word_bits} trials
    at once, in integer ops only — no allocation on the hot path.
    Shared subtrees (by physical identity) and repeated basic events
    compile once; single-child gates collapse; 1-of-N and N-of-N votes
    lower to OR/AND folds; the general k-of-N vote runs a bit-sliced
    carry-save counter with an MSB-first comparator. *)

val word_bits : int
(** Trials evaluated per machine word: 63 — the native-int width, so the
    kernel stays unboxed without flambda. *)

val all_lanes : int
(** The word with every trial lane set. *)

type t

val compile : Fta.Fault_tree.t -> t

val events : t -> Fta.Fault_tree.event array
(** Distinct basic events in [Fault_tree.basic_events] order — the
    variable indexing [eval] expects [vars] to follow. *)

val n_instrs : t -> int
(** Tape length (for reporting). *)

type scratch
(** Mutable register file, reused across evaluations. *)

val scratch : t -> scratch

val eval : t -> scratch -> vars:int array -> int
(** [eval p s ~vars] runs the tape over sampled indicator words —
    [vars.(v)] bit l is 1 iff event [v] failed in trial lane l — and
    returns the top-event word. *)
