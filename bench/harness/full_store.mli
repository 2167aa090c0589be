(** The EMF-style full-loading store.

    "SAME needs to load EMF models in their entirety before any queries
    can be performed" — so this store materialises every unit of a model
    set, charging the memory budget as it goes, and only then answers
    queries.  Set5 of Table VI overflows a JVM-sized budget here, exactly
    as the paper reports ("would not load Set5 due to memory overflow"). *)

type loaded

val load :
  budget:Budget.t ->
  Fixtures.Synthetic.spec ->
  (loaded, [ `Memory_overflow of int ]) result
(** [`Memory_overflow bytes_used] reports how far loading got. *)

val element_count : loaded -> int

val unit_count : loaded -> int

val evaluate : loaded -> int
(** Run the automated FMEA (path algorithm) over every loaded composite;
    returns the number of safety-related rows found — the "evaluation"
    timed in Table VI. *)

val release : budget:Budget.t -> loaded -> unit
