(** The streaming/indexed store — the paper's future-work fix
    ("integrate a scalable model indexing (or model storage) framework
    into SAME", citing Hawk [23]).

    Units are generated, analysed in bounded windows and dropped, so peak
    memory is one unit per worker regardless of set size: Set5 becomes
    analysable.  The benches contrast this ablation against
    {!Full_store}. *)

val evaluate :
  ?budget:Budget.t -> Fixtures.Synthetic.spec -> (int * int, [ `Memory_overflow of int ]) result
(** [(elements_processed, safety_related_rows)].  Units are analysed in
    windows on {!Exec} worker domains; the window is the job
    count, capped so a full window always fits the [budget] (a tight
    budget degrades to the sequential one-unit window).  With a [budget],
    each unit is charged on entry and released after its window is
    analysed; overflow is only possible if a single unit exceeds the
    whole budget.  The verdict counts are summed in generation order, so
    the result is identical for every window size. *)

val peak_resident_elements : Fixtures.Synthetic.spec -> int
(** The store's memory high-water mark in elements (one unit per
    job at the current {!Exec.default_jobs}), for the ablation
    report. *)
