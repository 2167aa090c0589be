type t = {
  mem_hits : int Atomic.t;
  disk_hits : int Atomic.t;
  misses : int Atomic.t;
  stores : int Atomic.t;
  golden_solves : int Atomic.t;
  rows_classified : int Atomic.t;
  rows_reused : int Atomic.t;
  rank_updates : int Atomic.t;
  reused : int Atomic.t;
  golden_newton : int Atomic.t;
  fault_newton : int Atomic.t;
  newton_faults : int Atomic.t;
  search_scored : int Atomic.t;
  search_pruned : int Atomic.t;
}

let create () =
  {
    mem_hits = Atomic.make 0;
    disk_hits = Atomic.make 0;
    misses = Atomic.make 0;
    stores = Atomic.make 0;
    golden_solves = Atomic.make 0;
    rows_classified = Atomic.make 0;
    rows_reused = Atomic.make 0;
    rank_updates = Atomic.make 0;
    reused = Atomic.make 0;
    golden_newton = Atomic.make 0;
    fault_newton = Atomic.make 0;
    newton_faults = Atomic.make 0;
    search_scored = Atomic.make 0;
    search_pruned = Atomic.make 0;
  }

let reset t =
  Atomic.set t.mem_hits 0;
  Atomic.set t.disk_hits 0;
  Atomic.set t.misses 0;
  Atomic.set t.stores 0;
  Atomic.set t.golden_solves 0;
  Atomic.set t.rows_classified 0;
  Atomic.set t.rows_reused 0;
  Atomic.set t.rank_updates 0;
  Atomic.set t.reused 0;
  Atomic.set t.golden_newton 0;
  Atomic.set t.fault_newton 0;
  Atomic.set t.newton_faults 0;
  Atomic.set t.search_scored 0;
  Atomic.set t.search_pruned 0

let incr_mem_hit t = Atomic.incr t.mem_hits
let incr_disk_hit t = Atomic.incr t.disk_hits
let incr_miss t = Atomic.incr t.misses
let incr_store t = Atomic.incr t.stores
let incr_golden_solve t = Atomic.incr t.golden_solves
let incr_row_classified t = Atomic.incr t.rows_classified
let incr_row_reused t = Atomic.incr t.rows_reused
let incr_rank_update t = Atomic.incr t.rank_updates
let incr_reused t = Atomic.incr t.reused

let add_golden_newton t n = ignore (Atomic.fetch_and_add t.golden_newton n)

let add_fault_newton t n =
  if n > 0 then begin
    ignore (Atomic.fetch_and_add t.fault_newton n);
    Atomic.incr t.newton_faults
  end

let add_search t ~scored ~pruned =
  ignore (Atomic.fetch_and_add t.search_scored scored);
  ignore (Atomic.fetch_and_add t.search_pruned pruned)

type snapshot = {
  mem_hits : int;
  disk_hits : int;
  misses : int;
  stores : int;
  golden_solves : int;
  rows_classified : int;
  rows_reused : int;
  rank_updates : int;
  reused : int;
  golden_newton : int;
  fault_newton : int;
  newton_faults : int;
  search_scored : int;
  search_pruned : int;
  sched_sequential : int;
  sched_parallel : int;
}

let snapshot (t : t) =
  (* The scheduler counters live in [Exec.Cost] (they are process-wide:
     one cost model serves every pipeline), read here so one snapshot
     carries the whole picture. *)
  let sched_sequential, sched_parallel = Exec.Cost.counters () in
  {
    mem_hits = Atomic.get t.mem_hits;
    disk_hits = Atomic.get t.disk_hits;
    misses = Atomic.get t.misses;
    stores = Atomic.get t.stores;
    golden_solves = Atomic.get t.golden_solves;
    rows_classified = Atomic.get t.rows_classified;
    rows_reused = Atomic.get t.rows_reused;
    rank_updates = Atomic.get t.rank_updates;
    reused = Atomic.get t.reused;
    golden_newton = Atomic.get t.golden_newton;
    fault_newton = Atomic.get t.fault_newton;
    newton_faults = Atomic.get t.newton_faults;
    search_scored = Atomic.get t.search_scored;
    search_pruned = Atomic.get t.search_pruned;
    sched_sequential;
    sched_parallel;
  }

let hits s = s.mem_hits + s.disk_hits

let solves_performed s = s.golden_solves + s.rank_updates

let newton_per_fault s =
  if s.newton_faults = 0 then 0.0
  else float_of_int s.fault_newton /. float_of_int s.newton_faults

let pp ppf s =
  Format.fprintf ppf
    "engine: %d cache hit%s (%d memory, %d disk), %d miss%s; %d solve%s \
     performed (%d golden, %d by rank update; %d of %d injections reused \
     the golden solution); Newton iterations: %d golden, %d over %d \
     injected fault%s (%.1f per fault); %d row%s reused"
    (hits s)
    (if hits s = 1 then "" else "s")
    s.mem_hits s.disk_hits s.misses
    (if s.misses = 1 then "" else "es")
    (solves_performed s)
    (if solves_performed s = 1 then "" else "s")
    s.golden_solves s.rank_updates s.reused
    s.rows_classified s.golden_newton s.fault_newton s.newton_faults
    (if s.newton_faults = 1 then "" else "s")
    (newton_per_fault s) s.rows_reused
    (if s.rows_reused = 1 then "" else "s");
  Format.fprintf ppf "; scheduler: %d parallel / %d sequential batch%s"
    s.sched_parallel s.sched_sequential
    (if s.sched_parallel + s.sched_sequential = 1 then "" else "es");
  Format.fprintf ppf
    "; search: %d combination%s scored, %d subtree%s skipped"
    s.search_scored
    (if s.search_scored = 1 then "" else "s")
    s.search_pruned
    (if s.search_pruned = 1 then "" else "s")
