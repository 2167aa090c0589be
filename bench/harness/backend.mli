(** Store backend selection.

    The streaming {!Lazy_store} wins on big sets (bounded memory,
    parallelism) but loses on small ones: its windowed dispatch costs
    more than Set0–Set2's entire evaluation, so Table VI's small rows ran
    slower lazily than the {!Full_store}'s load-then-evaluate.  [`Auto]
    picks per call: sets the memory budget cannot hold must stream; the
    rest stream only when they hold at least four units per job, enough
    windows to amortise their dispatch — below that the full store's
    direct evaluation is cheaper.

    Both backends count verdicts in generation order, so the result is
    identical whichever one runs. *)

type t = [ `Auto | `Full | `Lazy ]

val to_string : t -> string

val of_string : string -> t option

val choose : ?budget:Budget.t -> Fixtures.Synthetic.spec -> [ `Full | `Lazy ]
(** The [`Auto] policy, exposed for tests and the bench report. *)

val evaluate :
  ?backend:t ->
  ?budget:Budget.t ->
  Fixtures.Synthetic.spec ->
  (int * int, [ `Memory_overflow of int ]) result
(** [(elements_processed, safety_related_rows)] via the chosen backend
    (default [`Auto]).  [`Full] loads everything first (charging
    [budget], overflow possible), evaluates, releases; [`Lazy] streams
    windows. *)
