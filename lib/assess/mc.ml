let cost_key = "assess.replicate"

type sampling = Direct | Importance | Stratified

let sampling_to_string = function
  | Direct -> "direct"
  | Importance -> "importance"
  | Stratified -> "stratified"

type exact_check = Auto | Skip | Force

type config = {
  mission_hours : float;
  sampling : sampling;
  trials : int option;
  rel_precision : float option;
  max_trials : int;
  seed : int;
  exact : exact_check;
}

let default =
  {
    mission_hours = 10_000.0;
    sampling = Direct;
    trials = None;
    rel_precision = None;
    max_trials = 200_000_000;
    seed = 42;
    exact = Auto;
  }

type event_report = {
  event_id : string;
  probability : float;
  importance : float;
}

type report = {
  top_probability : float;
  halfwidth : float;
  trials : int;
  elapsed_s : float;
  trials_per_sec : float;
  events : event_report list;
  exact : float option;
  exact_delta : float option;
  sampling : sampling;
  mission_hours : float;
  instrs : int;
}

(* ---------- kernel ---------- *)

let blocks_per_replicate = 128

let trials_per_replicate = blocks_per_replicate * Program.word_bits

(* In-kernel PRNG: a splitmix-style mixer on native 63-bit ints.  The
   published SplitMix64 lives in [Rng] and seeds the per-event
   streams; the inner loop re-mixes native ints because Int64 values box
   on every operation without flambda — the difference between ~5 ns and
   ~80 ns per draw.  Constants: an odd gamma and two odd multipliers
   (rotations of the SplitMix64 finalizer constants into 62-bit range). *)
let gamma = 0x2545F4914F6CDD1D

let mul1 = 0x1CE4E5B9BF58476D

let mul2 = 0x133111EB94D049BB

let two53 = 9007199254740992.0 (* 2^53 *)

let threshold p =
  (* Event fires iff a 53-bit uniform draw is below [p * 2^53]; this is
     the inverse-CDF exponential T = -ln(1-u)/lambda compared against
     the mission time, algebraically reduced: T <= H iff u < 1-exp(-lambda*H). *)
  if p <= 0.0 then 0
  else if p >= 1.0 then 1 lsl 53
  else int_of_float (Float.round (p *. two53))

type kernel = {
  prog : Program.t;
  n_events : int;
  weighted : bool;
  thresholds : int array array;  (** per replicate parity *)
  base : float array;  (** per-trial log-weight constant, per parity *)
  deltas : float array;  (** per-event log-weight increment when it fires *)
}

(* Bit-plane Bernoulli sampling: one event's fire word.  Lane l fires iff
   its 53-bit uniform u_l is below t.  Rather than draw 63 uniforms, the
   kernel compares all lanes' uniforms with t at once, most significant
   bit first, one random word per bit plane (bit l of the word is lane
   l's bit of u_l at that plane).  Where t's bit is 1, the lanes still
   tied with t whose bit is 0 fall below t and fire; where it is 0, the
   tied lanes whose bit is 1 rise above t and never fire; the others stay
   tied.  Each plane settles about half the tied lanes, so a word takes
   ~8 draws instead of 63; the loop also stops once t has no set bit left
   at or below the plane, since a lane still tied then has u_l >= t.
   Every lane fires with probability exactly t / 2^53.  The stream state
   lives in a local for the whole loop, so nothing is allocated. *)
let fire_word states e t =
  if t <= 0 then 0
  else if t >= 1 lsl 53 then Program.all_lanes
  else begin
    let st = ref (Array.unsafe_get states e) in
    let tied = ref Program.all_lanes in
    let fire = ref 0 in
    let plane = ref 52 in
    while !tied <> 0 && t land ((1 lsl (!plane + 1)) - 1) <> 0 do
      let s = !st + gamma in
      st := s;
      let z = (s lxor (s lsr 30)) * mul1 in
      let z = (z lxor (z lsr 27)) * mul2 in
      let z = z lxor (z lsr 31) in
      (* all ones where t's bit is 1: picks the plane's rule without a branch *)
      let tb = -((t lsr !plane) land 1) in
      fire := !fire lor (!tied land lnot z land tb);
      tied := !tied land lnot (z lxor tb);
      decr plane
    done;
    Array.unsafe_set states e !st;
    !fire
  end

let sample_lanes ~state ~threshold =
  let states = [| state |] in
  let fire = fire_word states 0 threshold in
  (fire, states.(0))

let sample states thresholds (vars : int array) =
  for e = 0 to Array.length thresholds - 1 do
    Array.unsafe_set vars e (fire_word states e (Array.unsafe_get thresholds e))
  done

(* Per-replicate accumulation, only on words where the top event fired.
   The weight sums live in a two-slot float array ([sums.(0)] = sum w,
   [sums.(1)] = sum w^2), whose stores are unboxed, rather than in
   [Stat.t]'s mutable float fields, which box on every write. *)
let accumulate_direct sums (ev : float array) (vars : int array) top =
  let hits = float_of_int (Graph.Bitset.popcount top) in
  Array.unsafe_set sums 0 (Array.unsafe_get sums 0 +. hits);
  Array.unsafe_set sums 1 (Array.unsafe_get sums 1 +. hits);
  for e = 0 to Array.length vars - 1 do
    let c = top land Array.unsafe_get vars e in
    if c <> 0 then
      Array.unsafe_set ev e
        (Array.unsafe_get ev e +. float_of_int (Graph.Bitset.popcount c))
  done

(* A trial's weight matters only where the top event fired, so the
   log-weight (base plus the delta of every event fired in the lane, in
   event order) is built for those lanes alone, lowest lane first. *)
let accumulate_weighted sums (ev : float array) (vars : int array) top base
    (deltas : float array) =
  let rest = ref top in
  while !rest <> 0 do
    let lane = !rest land (- !rest) in
    rest := !rest lxor lane;
    let logw = ref base in
    for e = 0 to Array.length vars - 1 do
      let d = Array.unsafe_get deltas e in
      if d <> 0.0 && Array.unsafe_get vars e land lane <> 0 then
        logw := !logw +. d
    done;
    let w = exp !logw in
    Array.unsafe_set sums 0 (Array.unsafe_get sums 0 +. w);
    Array.unsafe_set sums 1 (Array.unsafe_get sums 1 +. (w *. w));
    for e = 0 to Array.length vars - 1 do
      if Array.unsafe_get vars e land lane <> 0 then
        Array.unsafe_set ev e (Array.unsafe_get ev e +. w)
    done
  done

let run_replicate kernel master r =
  (* Stream derivation fixes the replicate's randomness by its global
     index alone, so the merge below is bit-identical however the
     scheduler maps replicates to domains. *)
  let rep_rng = Rng.split master r in
  let n_events = kernel.n_events in
  let states =
    Array.init n_events (fun e ->
        Int64.to_int (Rng.next_int64 (Rng.split rep_rng e))
        land max_int)
  in
  let parity = r land (Array.length kernel.thresholds - 1) in
  let thresholds = kernel.thresholds.(parity) in
  let stat = Stat.create ~n_events in
  let ev = stat.Stat.ev in
  let sums = [| 0.0; 0.0 |] in
  let scratch = Program.scratch kernel.prog in
  let vars = Array.make (max n_events 1) 0 in
  let base = kernel.base.(parity) in
  for _ = 1 to blocks_per_replicate do
    sample states thresholds vars;
    let top = Program.eval kernel.prog scratch ~vars in
    if top <> 0 then
      if kernel.weighted then
        accumulate_weighted sums ev vars top base kernel.deltas
      else accumulate_direct sums ev vars top
  done;
  stat.Stat.n <- trials_per_replicate;
  stat.Stat.wsum <- sums.(0);
  stat.Stat.wsumsq <- sums.(1);
  stat

(* ---------- kernel construction ---------- *)

let event_probability mission_hours (e : Fta.Fault_tree.event) =
  match e.Fta.Fault_tree.rate_fit with
  | Some fit -> Reliability.Fit.failure_probability fit ~mission_hours
  | None -> 0.0

(* Importance sampling tilts rare events up to [tilt_floor] so the top
   event fires often enough to estimate; each trial then carries the
   likelihood ratio of true vs tilted Bernoulli products as a weight. *)
let tilt_floor = 0.1

let log_ratio_terms p p' =
  (* (delta_when_fired_minus_base, base_term): log(p/p') - log((1-p)/(1-p'))
     and log((1-p)/(1-p')).  Both zero when untilted. *)
  if p = p' then (0.0, 0.0)
  else
    let miss = log ((1.0 -. p) /. (1.0 -. p')) in
    (log (p /. p') -. miss, miss)

let make_kernel (config : config) prog probs =
  let n_events = Array.length probs in
  let zero_deltas = Array.make (max n_events 1) 0.0 in
  let direct () =
    {
      prog;
      n_events;
      weighted = false;
      thresholds = [| Array.map threshold probs |];
      base = [| 0.0 |];
      deltas = zero_deltas;
    }
  in
  match config.sampling with
  | Direct -> direct ()
  | Importance ->
      let tilted =
        Array.map (fun p -> if p > 0.0 && p < tilt_floor then tilt_floor else p) probs
      in
      let deltas = Array.make (max n_events 1) 0.0 in
      let base = ref 0.0 in
      Array.iteri
        (fun e p ->
          let d, m = log_ratio_terms p tilted.(e) in
          deltas.(e) <- d;
          base := !base +. m)
        probs;
      {
        prog;
        n_events;
        weighted = true;
        thresholds = [| Array.map threshold tilted |];
        base = [| !base |];
        deltas;
      }
  | Stratified ->
      (* Stratify on the likeliest event: even replicates force it
         failed, odd replicates force it healthy, each trial weighted by
         2*p / 2*(1-p) so the two strata recombine to the unconditional
         estimate.  Replicate rounds stay even-sized, so the strata are
         always balanced. *)
      let pivot = ref (-1) in
      Array.iteri
        (fun e p -> if p > 0.0 && (!pivot < 0 || p > probs.(!pivot)) then pivot := e)
        probs;
      if !pivot < 0 then direct ()
      else
        let p_s = probs.(!pivot) in
        let forced v =
          let t = Array.map threshold probs in
          t.(!pivot) <- (if v then 1 lsl 53 else 0);
          t
        in
        {
          prog;
          n_events;
          weighted = true;
          thresholds = [| forced true; forced false |];
          base = [| log (2.0 *. p_s); log (2.0 *. (1.0 -. p_s)) |];
          deltas = zero_deltas;
        }

(* ---------- driver ---------- *)

(* Stratified runs per-parity strata: replicate counts stay a multiple
   of the stratum count so both are equally represented (the weights
   assume balance). *)
let replicates_for kernel trials =
  let step = Array.length kernel.thresholds in
  let n = (trials + trials_per_replicate - 1) / trials_per_replicate in
  max step ((n + step - 1) / step * step)

(* The largest balanced replicate count that stays within [trials]. *)
let replicates_within kernel trials =
  let step = Array.length kernel.thresholds in
  trials / trials_per_replicate / step * step

let validate kernel (config : config) =
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  let first_round = replicates_for kernel 1 * trials_per_replicate in
  match (config.trials, config.rel_precision) with
  | Some n, Some p ->
      fail
        "assess: a fixed trial budget (%d) and a relative precision (%g) \
         are mutually exclusive"
        n p
  | Some n, None when n <= 0 ->
      fail "assess: trials must be positive (got %d)" n
  | None, Some p when not (p > 0.0) ->
      fail "assess: relative precision must be positive (got %g)" p
  | None, Some _ when config.max_trials < first_round ->
      fail "assess: max_trials %d is below one round of %d trials"
        config.max_trials first_round
  | _ -> ()

let halfwidth kernel stat =
  if kernel.weighted then Stat.clt_halfwidth stat else Stat.wilson_halfwidth stat

let run_sampler ?jobs kernel (config : config) =
  let master = Rng.create config.seed in
  let total = Stat.create ~n_events:kernel.n_events in
  let next = ref 0 in
  let run_round count =
    let indices = List.init count (fun i -> !next + i) in
    next := !next + count;
    let stats =
      Exec.scheduled_map ?jobs ~key:cost_key
        (fun r -> run_replicate kernel master r)
        indices
    in
    (* Merge in replicate-index order: determinism across SAME_JOBS. *)
    List.iter (fun s -> Stat.merge_into total s) stats
  in
  (match (config.trials, config.rel_precision) with
  | Some trials, _ -> run_round (replicates_for kernel trials)
  | None, Some precision ->
      (* Doubling rounds against a convergence target: consecutive
         replicate indices keep the estimate independent of how many
         rounds it takes. *)
      let converged () =
        let est = Stat.mean total in
        est > 0.0 && halfwidth kernel total <= precision *. est
      in
      run_round (replicates_for kernel 1);
      (* Double, but never past [max_trials]: the last round rounds
         down to whole (balanced) replicates, and stops when none fit. *)
      let rec grow () =
        if not (converged ()) then begin
          let room =
            replicates_within kernel (config.max_trials - Stat.n total)
          in
          let count = min (Stat.n total / trials_per_replicate) room in
          if count > 0 then begin
            run_round count;
            grow ()
          end
        end
      in
      grow ()
  | None, None -> run_round (replicates_for kernel 1_000_000));
  total

let tractable_for_exact prog = Array.length (Program.events prog) <= 30

let run ?jobs (config : config) tree =
  let prog = Program.compile tree in
  let events = Program.events prog in
  let probs = Array.map (event_probability config.mission_hours) events in
  let kernel = make_kernel config prog probs in
  validate kernel config;
  let t0 = Unix.gettimeofday () in
  let stat = run_sampler ?jobs kernel config in
  let elapsed_s = Unix.gettimeofday () -. t0 in
  let estimate = Stat.mean stat in
  let exact =
    let compute () =
      let assoc =
        Array.to_list
          (Array.mapi
             (fun i (e : Fta.Fault_tree.event) ->
               (e.Fta.Fault_tree.event_id, probs.(i)))
             events)
      in
      Fta.Quant.top_probability_exact tree assoc
    in
    match config.exact with
    | Skip -> None
    | Force -> Some (compute ())
    | Auto -> if tractable_for_exact prog then Some (compute ()) else None
  in
  let event_reports =
    let wsum = stat.Stat.wsum in
    Array.to_list
      (Array.mapi
         (fun i (e : Fta.Fault_tree.event) ->
           {
             event_id = e.Fta.Fault_tree.event_id;
             probability = probs.(i);
             importance =
               (if wsum > 0.0 then Stat.event_weight stat i /. wsum else 0.0);
           })
         events)
    |> List.sort (fun a b -> Float.compare b.importance a.importance)
  in
  {
    top_probability = estimate;
    halfwidth = halfwidth kernel stat;
    trials = Stat.n stat;
    elapsed_s;
    trials_per_sec =
      (if elapsed_s > 0.0 then float_of_int (Stat.n stat) /. elapsed_s
       else 0.0);
    events = event_reports;
    exact;
    exact_delta = Option.map (fun x -> Float.abs (estimate -. x)) exact;
    sampling = config.sampling;
    mission_hours = config.mission_hours;
    instrs = Program.n_instrs prog;
  }
