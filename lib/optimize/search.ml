type candidate = {
  deployments : Fmea.Fmeda.deployment list;
  spfm_pct : float;
  cost : float;
}
[@@deriving eq, show]

type slot = {
  slot_component : string;
  slot_failure_mode : string;
  slot_options : Reliability.Sm_model.mechanism list;
}

let slots ?(component_types = []) (table : Fmea.Table.t) sm_model =
  List.filter_map
    (fun (r : Fmea.Table.row) ->
      if not r.Fmea.Table.safety_related then None
      else
        let ctype =
          match List.assoc_opt r.Fmea.Table.component component_types with
          | Some ty -> ty
          | None -> r.Fmea.Table.component
        in
        let options =
          Reliability.Sm_model.applicable sm_model ~component_type:ctype
            ~failure_mode:r.Fmea.Table.failure_mode
        in
        if options = [] then None
        else
          Some
            {
              slot_component = r.Fmea.Table.component;
              slot_failure_mode = r.Fmea.Table.failure_mode;
              slot_options = options;
            })
    table.Fmea.Table.rows

let evaluate table deployments =
  let fmeda = Fmea.Fmeda.apply table deployments in
  {
    deployments;
    spfm_pct = Fmea.Metrics.spfm fmeda;
    cost = Fmea.Fmeda.total_cost deployments;
  }

(* ---------- streaming exhaustive enumeration ----------

   The combination space is a mixed-radix counter: slot [i] contributes
   a digit in [0 .. length slot_options], digit 0 meaning "deploy
   nothing" and digit [j] the [j-1]-th option; the {e first} slot is the
   most significant digit.  Counting 0, 1, 2, … reproduces, candidate
   for candidate, the order the old list-based expansion
   ([without @ with_each]) produced — so every downstream tie-break
   (Pareto sweep stability, cheapest-meeting "first wins") is
   bit-identical — without ever materialising the combination list.

   Stepping the counter from k to k+1 changes only its trailing digits,
   so a window of consecutive candidates is scored along the counter.
   The scan keeps a running cost fold per slot, and per component its
   rows' single-point FITs, their fold and the running total over
   components.  A step that changes digits [p..q] re-folds only the
   components whose rows those slots match, then the cost and component
   prefixes after them (a step of one changes [p..] for its lowest
   changed digit [p]; a skip past a subtree changes fewer).  Every fold replays [Metrics.compute]'s
   order (row order within a component, first-appearance order across
   components) and [Fmeda.total_cost]'s slot order, so each candidate is
   bit-identical to {!evaluate}.

   The counter values whose digits [0..f-1] agree and whose digits
   [f..] are free form one subtree, [span.(f)] consecutive values long,
   that starts where digits [f..] are all 0.  {!optimise} bounds such a
   subtree from the scan state at its first value and skips it whole
   when no candidate in it can change the search's result. *)

let default_window = 8_192

(* Combination count with saturation (33 slots of 3 options already
   overflow 63-bit ints). *)
let combination_count slots =
  List.fold_left
    (fun acc s ->
      let r = List.length s.slot_options + 1 in
      if acc > max_int / r then max_int else acc * r)
    1 slots

(* One row of a safety-related component as the scan folds it: its
   single-point FIT when no matching slot deploys, the slots whose
   deployment matches it (ascending, i.e. in deployment-list order), per
   matching slot and option the FIT it leaves single-point, and per first
   free slot [f] the least FIT any option of a matching slot [f..]
   leaves (infinity when none matches). *)
type scan_row = {
  sr_base : float;
  sr_slots : int array;
  sr_spf : float array array;
  sr_free_min : float array;
}

(* Everything a window scan reads, resolved once per fold.  Immutable
   after construction, so the pool's domains share it. *)
type scan = {
  sc_options : Fmea.Fmeda.deployment array array;  (* slot -> option *)
  sc_cost : float array array;
  sc_coverage : float array array;
  sc_radix : int array;
  sc_span : int array;
      (* f -> counter values in a subtree whose first free slot is f *)
  sc_rows : scan_row array array;  (* SR component -> its rows *)
  sc_affected : int array array;
      (* p -> the components whose rows slots [p..] match, ascending *)
  sc_matched : int array array;
      (* slot -> the components whose rows it matches, ascending *)
  sc_first : int array;
      (* component -> the first slot matching one of its rows, or n *)
  sc_free_fold : float array array;
      (* component -> f <= sc_first: the fold over its rows of the lower
         of [sr_base] and [sr_free_min.(f)] *)
  sc_sr_fit : float;
  sc_negative : int array;  (* slots with a negative-cost option, ascending *)
  sc_cheapest : float array;  (* slot -> its cheapest option's cost *)
  sc_finite : bool;
      (* every FIT and cost the scores fold is finite, so no score is NaN
         and the bounds hold *)
}

(* A row's single-point FIT bound in a subtree: its value at the fixed
   digits or the least a free option leaves, whichever is lower. *)
let lower v w = if w < v then w else v

let make_scan table slots =
  let slots = Array.of_list slots in
  let n = Array.length slots in
  let per_option g =
    Array.map (fun s -> Array.of_list (List.map (g s) s.slot_options)) slots
  in
  let sc_options =
    per_option (fun s ->
        Fmea.Fmeda.deploy ~component:s.slot_component
          ~failure_mode:s.slot_failure_mode)
  in
  let sc_coverage =
    per_option (fun _ m -> m.Reliability.Sm_model.coverage_pct)
  in
  let sc_cost = per_option (fun _ m -> m.Reliability.Sm_model.cost) in
  let sc_radix = Array.map (fun o -> Array.length o + 1) sc_options in
  let sc_span = Array.make (n + 1) 1 in
  for f = n - 1 downto 0 do
    sc_span.(f) <- sc_radix.(f) * sc_span.(f + 1)
  done;
  (* [Fmeda.matches] compares lowercased names: lowercase each slot and
     each row once. *)
  let key component failure_mode =
    (String.lowercase_ascii component, String.lowercase_ascii failure_mode)
  in
  let slot_keys =
    Array.map (fun s -> key s.slot_component s.slot_failure_mode) slots
  in
  let scan_row (r : Fmea.Table.row) =
    let row_key = key r.Fmea.Table.component r.Fmea.Table.failure_mode in
    let sr_slots =
      List.init n Fun.id
      |> List.filter (fun i -> slot_keys.(i) = row_key)
      |> Array.of_list
    in
    (* The failure mode's λ share, which a deployment leaves uncovered in
       proportion; a deployment leaves no single-point FIT on a row that
       is not safety-related. *)
    let residual =
      if r.Fmea.Table.safety_related then
        let share =
          Reliability.Fit.share r.Fmea.Table.component_fit
            ~distribution_pct:r.Fmea.Table.distribution_pct
        in
        fun coverage_pct -> Reliability.Fit.residual share ~coverage_pct
      else fun _ -> 0.0
    in
    let sr_spf = Array.map (fun i -> Array.map residual sc_coverage.(i)) sr_slots in
    let sr_free_min = Array.make (n + 1) Float.infinity in
    Array.iteri
      (fun k i ->
        let least = Array.fold_left Float.min Float.infinity sr_spf.(k) in
        for f = 0 to i do
          sr_free_min.(f) <- Float.min sr_free_min.(f) least
        done)
      sr_slots;
    { sr_base = r.Fmea.Table.single_point_fit; sr_slots; sr_spf; sr_free_min }
  in
  (* The safety-related components in first-appearance order, each with
     every row it has, in table order; and the FIT of each, read from its
     first row, folded in that order ([Metrics.compute]'s). *)
  let components =
    List.map (Fmea.Table.rows_for table)
      (Fmea.Table.safety_related_components table)
  in
  let sc_sr_fit =
    List.fold_left
      (fun acc rows ->
        match rows with
        | (r : Fmea.Table.row) :: _ -> acc +. r.Fmea.Table.component_fit
        | [] -> acc)
      0.0 components
  in
  let sc_rows =
    Array.of_list
      (List.map (fun rows -> Array.of_list (List.map scan_row rows)) components)
  in
  let m = Array.length sc_rows in
  let components = List.init m Fun.id in
  let matches i c = Array.exists (fun r -> Array.mem i r.sr_slots) sc_rows.(c) in
  let sc_matched =
    Array.init n (fun i -> Array.of_list (List.filter (matches i) components))
  in
  let touched = Array.make m false in
  let sc_affected = Array.make n [||] in
  for p = n - 1 downto 0 do
    Array.iter (fun c -> touched.(c) <- true) sc_matched.(p);
    sc_affected.(p) <- Array.of_list (List.filter (Array.get touched) components)
  done;
  let sc_first = Array.make m n in
  for i = n - 1 downto 0 do
    Array.iter (fun c -> sc_first.(c) <- i) sc_matched.(i)
  done;
  let sc_cheapest =
    Array.map (Array.fold_left Float.min Float.infinity) sc_cost
  in
  let all_finite a = Array.for_all Float.is_finite a in
  {
    sc_options;
    sc_cost;
    sc_coverage;
    sc_radix;
    sc_span;
    sc_rows;
    sc_affected;
    sc_matched;
    sc_first;
    sc_free_fold =
      Array.mapi
        (fun c rows ->
          Array.init (sc_first.(c) + 1) (fun f ->
              Array.fold_left
                (fun acc r -> acc +. lower r.sr_base r.sr_free_min.(f))
                0.0 rows))
        sc_rows;
    sc_sr_fit;
    sc_negative =
      Array.of_list
        (List.filter (fun i -> sc_cheapest.(i) < 0.0) (List.init n Fun.id));
    sc_cheapest;
    sc_finite =
      Float.is_finite sc_sr_fit
      && Array.for_all all_finite sc_cost
      && Array.for_all
           (Array.for_all (fun r ->
                Float.is_finite r.sr_base && Array.for_all all_finite r.sr_spf))
           sc_rows;
  }

(* The digit vector of counter value [k]. *)
let decode sc k =
  Array.init (Array.length sc.sc_radix) (fun i ->
      k / sc.sc_span.(i + 1) mod sc.sc_radix.(i))

(* Add one at digit [pos] (the digits after it are 0, or [pos] is the
   last digit) and return the lowest changed digit.  Never called past
   the last combination, so the carry stops inside the vector. *)
let increment_at sc digit pos =
  let p = ref pos in
  while digit.(!p) + 1 = sc.sc_radix.(!p) do
    digit.(!p) <- 0;
    decr p
  done;
  digit.(!p) <- digit.(!p) + 1;
  !p

(* The scores of one digit vector and the folds they come from: per
   slot the cost folded over slots [0..i]; per component its rows'
   single-point FITs and their fold; per component the fold over
   components [0..j].  Both the exhaustive windows and {!greedy} score
   by changing digits and calling {!refresh}. *)
type state = {
  digit : int array;
  cost_prefix : float array;
  row_spf : float array array;
  component_spf : float array;
  spf_prefix : float array;
}

(* Per row, the deploying matching slot is [Fmeda.apply]'s: highest
   coverage wins, the earlier slot wins a coverage tie. *)
let refold_component sc st c =
  let digit = st.digit in
  let rows = sc.sc_rows.(c) and values = st.row_spf.(c) in
  let acc = ref 0.0 in
  for r = 0 to Array.length rows - 1 do
    let row = rows.(r) in
    let spf = ref row.sr_base and best_cov = ref Float.nan in
    for k = 0 to Array.length row.sr_slots - 1 do
      let s = row.sr_slots.(k) in
      let d = digit.(s) in
      if d > 0 then begin
        let cov = sc.sc_coverage.(s).(d - 1) in
        if Float.is_nan !best_cov || not (!best_cov >= cov) then begin
          best_cov := cov;
          spf := row.sr_spf.(k).(d - 1)
        end
      end
    done;
    values.(r) <- !spf;
    acc := !acc +. !spf
  done;
  st.component_spf.(c) <- !acc

let refold_costs sc st ~from =
  let digit = st.digit and cost_prefix = st.cost_prefix in
  for i = from to Array.length digit - 1 do
    let prev = if i = 0 then 0.0 else cost_prefix.(i - 1) in
    let d = digit.(i) in
    cost_prefix.(i) <- (if d = 0 then prev else prev +. sc.sc_cost.(i).(d - 1))
  done

let refold_spf st ~from =
  let component_spf = st.component_spf and spf_prefix = st.spf_prefix in
  for j = from to Array.length spf_prefix - 1 do
    let prev = if j = 0 then 0.0 else spf_prefix.(j - 1) in
    spf_prefix.(j) <- prev +. component_spf.(j)
  done

(* After a change of digits [p..q]. *)
let refresh sc st p q =
  refold_costs sc st ~from:p;
  let first = ref (Array.length sc.sc_rows) in
  for i = p to q do
    let matched = sc.sc_matched.(i) in
    for j = 0 to Array.length matched - 1 do
      let c = matched.(j) in
      refold_component sc st c;
      if c < !first then first := c
    done
  done;
  refold_spf st ~from:!first

(* The state at [digit], which it takes over, by a full fold. *)
let state_at sc digit =
  let st =
    {
      digit;
      cost_prefix = Array.make (Array.length digit) 0.0;
      row_spf =
        Array.map (fun rows -> Array.make (Array.length rows) 0.0) sc.sc_rows;
      component_spf = Array.make (Array.length sc.sc_rows) 0.0;
      spf_prefix = Array.make (Array.length sc.sc_rows) 0.0;
    }
  in
  refold_costs sc st ~from:0;
  for c = 0 to Array.length sc.sc_rows - 1 do
    refold_component sc st c
  done;
  refold_spf st ~from:0;
  st

let spfm_of sc single_point_fit =
  if sc.sc_sr_fit <= 0.0 then 100.0
  else 100.0 *. (1.0 -. (single_point_fit /. sc.sc_sr_fit))

let state_spfm sc st =
  let m = Array.length st.spf_prefix in
  spfm_of sc (if m = 0 then 0.0 else st.spf_prefix.(m - 1))

(* What a window of {!optimise} can skip against: the SPFM target, and
   the cheapest meeting candidate and the Pareto front as they stood
   when the window's round began. *)
type goal = {
  g_target : float option;
  g_best : candidate option;
  g_front : candidate list;  (* ascending cost, strictly increasing SPFM *)
}

(* A window's result: the counter offsets of the candidates it kept,
   with their scores, in counter order; and its work counts. *)
type kept = {
  mutable k_count : int;
  mutable k_offset : int array;
  mutable k_spfm : float array;
  mutable k_cost : float array;
  mutable k_scored : int;  (* candidates scored *)
  mutable k_pruned : int;  (* subtrees skipped unscored *)
}

let keep w k spfm cost =
  if w.k_count = Array.length w.k_offset then begin
    let grow a fill =
      Array.append a (Array.make (max 16 (Array.length a)) fill)
    in
    w.k_offset <- grow w.k_offset 0;
    w.k_spfm <- grow w.k_spfm 0.0;
    w.k_cost <- grow w.k_cost 0.0
  end;
  w.k_offset.(w.k_count) <- k;
  w.k_spfm.(w.k_count) <- spfm;
  w.k_cost.(w.k_count) <- cost;
  w.k_count <- w.k_count + 1

(* A Pareto front as two sorted arrays: ascending cost, strictly
   increasing SPFM — [front_insert]'s invariant. *)
type front = { mutable f_cost : float array; mutable f_spfm : float array }

(* Some entry costs at most [cost] and reaches [spfm]: with SPFM
   increasing along the front, that is the last entry costing at most
   [cost]. *)
let dominated fr ~cost ~spfm =
  let lo = ref 0 and hi = ref (Array.length fr.f_cost) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fr.f_cost.(mid) <= cost then lo := mid + 1 else hi := mid
  done;
  !lo > 0 && fr.f_spfm.(!lo - 1) >= spfm

(* [front_insert] of an undominated candidate: entries cheaper than it
   stay, and of the others those it matches or beats in SPFM go. *)
let front_add fr ~cost ~spfm =
  let n = Array.length fr.f_cost in
  let i = ref 0 in
  while !i < n && fr.f_cost.(!i) < cost do incr i done;
  let j = ref !i in
  while !j < n && fr.f_spfm.(!j) <= spfm do incr j done;
  let splice a x =
    Array.concat [ Array.sub a 0 !i; [| x |]; Array.sub a !j (n - !j) ]
  in
  fr.f_cost <- splice fr.f_cost cost;
  fr.f_spfm <- splice fr.f_spfm spfm

(* Score the [len] candidates from counter [base] on, in counter order.
   The state is seeded by a full fold at [base]; each later step pays
   only for the digits it changes.  Without a goal every candidate is
   kept.  With one, the window keeps its own copy of the goal's best
   and front, updated by each candidate it keeps, and keeps a candidate
   only when it is undominated by that front or beats that best.  Before
   scoring, it bounds each subtree that starts at the current value,
   largest first, and skips the first one that cannot hold such a
   candidate.  Scores are unboxed floats: a window holds no pointers to
   them, so nothing it computes is promoted out of the minor heap. *)
let scan_window sc goal (base, len) =
  let n = Array.length sc.sc_radix in
  let m = Array.length sc.sc_rows in
  let st = state_at sc (decode sc base) in
  let digit = st.digit in
  (* Bounds on the subtree whose first free slot is [f], its digits
     [f..] all 0 now.  Its least cost: the prefix cost plus each free
     slot's cheapest option when negative, folded in slot order.  Its
     greatest SPFM: each row's single-point FIT replaced by the lower of
     its current value and the least any free matching option leaves,
     folded in [Metrics.compute]'s order.  Round-to-nearest [+], [*] and
     [/] are monotone, so the folds bound every candidate in the subtree
     exactly as its floats come out. *)
  let least_cost f =
    let c = ref (if f = 0 then 0.0 else st.cost_prefix.(f - 1)) in
    Array.iter
      (fun i -> if i >= f then c := !c +. sc.sc_cheapest.(i))
      sc.sc_negative;
    !c
  in
  let greatest_spfm f =
    (* Never empty: a slot matches the row it was made for. *)
    let affected = sc.sc_affected.(f) in
    let a0 = affected.(0) in
    let acc = ref (if a0 = 0 then 0.0 else st.spf_prefix.(a0 - 1)) in
    let next = ref 0 in
    for j = a0 to m - 1 do
      if !next < Array.length affected && affected.(!next) = j then begin
        incr next;
        if f <= sc.sc_first.(j) then
          (* No fixed slot matches the component: its rows are at their
             base values, so its bound is precomputed. *)
          acc := !acc +. sc.sc_free_fold.(j).(f)
        else begin
          let rows = sc.sc_rows.(j) and values = st.row_spf.(j) in
          let lb = ref 0.0 in
          for r = 0 to Array.length rows - 1 do
            lb := !lb +. lower values.(r) rows.(r).sr_free_min.(f)
          done;
          acc := !acc +. !lb
        end
      end
      else acc := !acc +. st.component_spf.(j)
    done;
    spfm_of sc !acc
  in
  let w =
    {
      k_count = 0;
      k_offset = [||];
      k_spfm = [||];
      k_cost = [||];
      k_scored = 0;
      k_pruned = 0;
    }
  in
  (* The window's own best and front ([nan] cost: no best yet). *)
  let pruning = sc.sc_finite && Option.is_some goal in
  let target, best_cost, best_spfm, fr =
    match goal with
    | Some g when pruning ->
        let b_cost, b_spfm =
          match g.g_best with
          | Some b -> (b.cost, b.spfm_pct)
          | None -> (Float.nan, Float.nan)
        in
        ( g.g_target,
          ref b_cost,
          ref b_spfm,
          {
            f_cost = Array.of_list (List.map (fun c -> c.cost) g.g_front);
            f_spfm = Array.of_list (List.map (fun c -> c.spfm_pct) g.g_front);
          } )
    | _ ->
        (None, ref Float.nan, ref Float.nan, { f_cost = [||]; f_spfm = [||] })
  in
  let meets spfm = match target with None -> true | Some t -> spfm >= t in
  (* No candidate costing at least [cost] with at most [spfm] can become
     the cheapest meeting one. *)
  let hopeless ~cost ~spfm =
    (not (meets spfm))
    || cost > !best_cost
    || (cost = !best_cost && spfm <= !best_spfm)
  in
  let skip ~cost ~spfm = hopeless ~cost ~spfm && dominated fr ~cost ~spfm in
  (* The first free slot of the largest subtree starting here. *)
  let lowest = ref n in
  while !lowest > 0 && digit.(!lowest - 1) = 0 do decr lowest done;
  let k = ref 0 in
  while !k < len do
    let f = ref (if pruning then !lowest else n) in
    while
      !f < n && not (skip ~cost:(least_cost !f) ~spfm:(greatest_spfm !f))
    do
      incr f
    done;
    if !f < n then begin
      w.k_pruned <- w.k_pruned + 1;
      k := !k + sc.sc_span.(!f);
      if !k < len then begin
        let p = increment_at sc digit (!f - 1) in
        refresh sc st p (!f - 1);
        lowest := p + 1
      end
    end
    else begin
      w.k_scored <- w.k_scored + 1;
      let spfm = state_spfm sc st
      and cost = if n = 0 then 0.0 else st.cost_prefix.(n - 1) in
      if not (pruning && skip ~cost ~spfm) then begin
        keep w !k spfm cost;
        if pruning then begin
          if meets spfm && not (hopeless ~cost ~spfm) then begin
            best_cost := cost;
            best_spfm := spfm
          end;
          if not (dominated fr ~cost ~spfm) then front_add fr ~cost ~spfm
        end
      end;
      incr k;
      if !k < len then begin
        let p = increment_at sc digit (n - 1) in
        refresh sc st p (n - 1);
        lowest := p + 1
      end
    end
  done;
  w

(* Fold [f] over a window's kept candidates, building each one's
   deployment list (slot order) from its counter value. *)
let fold_window sc f acc ((base, _), w) =
  let digit = ref [||] and at = ref (-1) in
  let acc = ref acc in
  for i = 0 to w.k_count - 1 do
    let k = base + w.k_offset.(i) in
    if k = !at + 1 && !at >= 0 then
      ignore (increment_at sc !digit (Array.length !digit - 1))
    else digit := decode sc k;
    at := k;
    let deployments = ref [] in
    for s = Array.length !digit - 1 downto 0 do
      let d = !digit.(s) in
      if d > 0 then deployments := sc.sc_options.(s).(d - 1) :: !deployments
    done;
    acc :=
      f !acc
        {
          deployments = !deployments;
          spfm_pct = w.k_spfm.(i);
          cost = w.k_cost.(i);
        }
  done;
  !acc

(* Fold [f] over the kept candidates of every window, in counter order.
   One pool task per window.  A round holds one window per worker, so at
   most [jobs * window] scores are alive at once; rounds, and the windows
   within a round, are folded in counter order.  [goal acc] is what the
   windows of a round starting at [acc] may skip against.  Returns the
   result and the candidates scored and subtrees skipped. *)
let scan_fold (sc, combinations) ~window ~goal ~init ~f =
  let window = max 1 window in
  let per_round = Exec.default_jobs () in
  let rec round base k =
    if k = 0 || base >= combinations then []
    else
      let len = min window (combinations - base) in
      (base, len) :: round (base + len) (k - 1)
  in
  let rec go (acc, scored, pruned) base =
    if base >= combinations then (acc, scored, pruned)
    else
      let windows = round base per_round in
      let kept =
        Exec.scheduled_map ~key:"optimize.search"
          (scan_window sc (goal acc))
          windows
      in
      go
        ( List.fold_left (fold_window sc f) acc (List.combine windows kept),
          List.fold_left (fun s w -> s + w.k_scored) scored kept,
          List.fold_left (fun s w -> s + w.k_pruned) pruned kept )
        (List.fold_left (fun b (_, len) -> b + len) base windows)
  in
  go (init, 0, 0) 0

let exhaustive_fold ?(component_types = []) ?(max_combinations = 2_000_000)
    ?(window = default_window) table sm_model ~init ~f =
  let slots = slots ~component_types table sm_model in
  let combinations = combination_count slots in
  if combinations > max_combinations then
    invalid_arg
      (Printf.sprintf
         "Search.exhaustive: %d combinations exceed the limit of %d"
         combinations max_combinations);
  let acc, _, _ =
    scan_fold (make_scan table slots, combinations) ~window
      ~goal:(fun _ -> None) ~init ~f
  in
  acc

let exhaustive ?(component_types = []) ?(max_combinations = 200_000) table
    sm_model =
  List.rev
    (exhaustive_fold ~component_types ~max_combinations table sm_model
       ~init:[] ~f:(fun acc c -> c :: acc))

(* Greedy over [slots] on the scan, and the moves it scored.  The list of
   deployments is kept apart, newest first, as moves apply.  A
   deployment is found by its exact names, so slots with equal names
   share one: the digit of the first of them holds it. *)
let greedy_scored ~target table slots =
  let sc = make_scan table slots in
  let slots = Array.of_list slots in
  let n = Array.length slots in
  let st = state_at sc (Array.make n 0) in
  let same_names s (d : Fmea.Fmeda.deployment) =
    String.equal d.Fmea.Fmeda.target_component s.slot_component
    && String.equal d.Fmea.Fmeda.target_failure_mode s.slot_failure_mode
  in
  let holder =
    Array.map
      (fun s ->
        let i = ref 0 in
        while not (same_names s sc.sc_options.(!i).(0)) do incr i done;
        !i)
      slots
  in
  let met =
    match Fmea.Asil.spfm_target target with
    | None -> fun _ -> true
    | Some t -> fun spfm -> spfm >= t
  in
  let scored = ref 0 in
  (* The SPFM with digit [i] set to [d]. *)
  let spfm_with i d =
    let held = st.digit.(i) in
    st.digit.(i) <- d;
    refresh sc st i i;
    let spfm = state_spfm sc st in
    st.digit.(i) <- held;
    refresh sc st i i;
    spfm
  in
  let rec step deployments =
    let spfm = state_spfm sc st in
    let current =
      { deployments; spfm_pct = spfm; cost = Fmea.Fmeda.total_cost deployments }
    in
    if met spfm then current
    else begin
      (* Moves: deploy a mechanism on an empty slot, or replace the one
         deployed there.  Score is SPFM gain per added cost (a
         replacement counts only the cost delta, floored so free or
         cheaper ones are strongly preferred); the first best move in
         slot and option order wins. *)
      let best = ref None in
      for s = 0 to n - 1 do
        let i = holder.(s) in
        let existing =
          if st.digit.(i) = 0 then None
          else Some sc.sc_options.(i).(st.digit.(i) - 1).Fmea.Fmeda.mechanism
        in
        Array.iteri
          (fun k (d : Fmea.Fmeda.deployment) ->
            let m = d.Fmea.Fmeda.mechanism in
            let already =
              match existing with Some e -> e = m | None -> false
            in
            if not already then begin
              incr scored;
              let gain = spfm_with i (k + 1) -. spfm in
              let cost_delta =
                m.Reliability.Sm_model.cost
                -.
                match existing with
                | Some e -> e.Reliability.Sm_model.cost
                | None -> 0.0
              in
              let score = gain /. Float.max cost_delta 0.01 in
              if not (gain <= 0.0) then
                match !best with
                | Some (_, _, best_score) when best_score >= score -> ()
                | Some _ | None -> best := Some (s, k, score)
            end)
          sc.sc_options.(s)
      done;
      match !best with
      | None -> current (* no mechanism helps further *)
      | Some (s, k, _) ->
          let i = holder.(s) in
          st.digit.(i) <- k + 1;
          refresh sc st i i;
          step
            (sc.sc_options.(s).(k)
            :: List.filter (fun d -> not (same_names slots.(s) d)) deployments)
    end
  in
  let result = step [] in
  (result, !scored)

let greedy ?(component_types = []) ~target table sm_model =
  fst (greedy_scored ~target table (slots ~component_types table sm_model))

(* Sort by ascending cost (descending SPFM within equal cost; stable, so
   the earliest candidate wins ties) and sweep: a candidate survives iff
   its SPFM strictly beats everything cheaper-or-equal already kept.
   O(n log n) — the exhaustive search can emit tens of thousands of
   candidates, so the naive pairwise check is far too slow. *)
let pareto_front candidates =
  let sorted =
    List.stable_sort
      (fun a b ->
        match Float.compare a.cost b.cost with
        | 0 -> Float.compare b.spfm_pct a.spfm_pct
        | n -> n)
      candidates
  in
  let front, _ =
    List.fold_left
      (fun (kept, best_spfm) c ->
        if c.spfm_pct > best_spfm then (c :: kept, c.spfm_pct)
        else (kept, best_spfm))
      ([], Float.neg_infinity) sorted
  in
  List.rev front

(* One step of the cheapest-meeting fold — shared between the list-based
   entry point and the streaming optimiser so both apply the identical
   "cheaper wins, higher SPFM breaks cost ties, first wins exact ties"
   rule in candidate order. *)
let cheapest_step ~meets acc c =
  if not (meets c) then acc
  else
    match acc with
    | None -> Some c
    | Some best ->
        if c.cost < best.cost || (c.cost = best.cost && c.spfm_pct > best.spfm_pct)
        then Some c
        else acc

let cheapest_meeting ~target candidates =
  let target_spfm = Fmea.Asil.spfm_target target in
  let meets c =
    match target_spfm with None -> true | Some t -> c.spfm_pct >= t
  in
  List.fold_left (cheapest_step ~meets) None candidates

(* Online Pareto maintenance.  The front is kept sorted by ascending
   cost with strictly increasing SPFM, so a fold of [front_insert] over
   any candidate sequence ends in exactly [pareto_front] of that
   sequence: a new candidate is dropped iff some earlier-kept candidate
   is cheaper-or-equal with at least its SPFM (which also encodes the
   "first candidate wins exact ties" rule — the incumbent was folded
   first), and otherwise evicts the now-dominated suffix it supersedes.
   Dropped candidates can never re-enter a batch front, so discarding
   them immediately is lossless — this is what lets {!optimise} stream
   millions of combinations at flat memory. *)
let front_insert front c =
  if
    List.exists
      (fun f -> f.cost <= c.cost && f.spfm_pct >= c.spfm_pct)
      front
  then front
  else
    let rec ins = function
      | [] -> [ c ]
      | f :: rest ->
          if f.cost < c.cost then f :: ins rest
          else c :: List.filter (fun g -> g.spfm_pct > c.spfm_pct) (f :: rest)
    in
    ins front

let optimise ?(component_types = [])
    ?(on_scored = fun ~scored:_ ~pruned:_ -> ()) ~target table sm_model =
  let target_spfm = Fmea.Asil.spfm_target target in
  let meets c =
    match target_spfm with None -> true | Some t -> c.spfm_pct >= t
  in
  let slots = slots ~component_types table sm_model in
  let combinations = combination_count slots in
  if combinations > 2_000_000 then begin
    let g, scored = greedy_scored ~target table slots in
    on_scored ~scored ~pruned:0;
    (Some g, [ g ])
  end
  else
    let (best, front), scored, pruned =
      scan_fold (make_scan table slots, combinations) ~window:default_window
        ~goal:(fun (g_best, g_front) ->
          Some { g_target = target_spfm; g_best; g_front })
        ~init:(None, [])
        ~f:(fun (best, front) c ->
          (cheapest_step ~meets best c, front_insert front c))
    in
    on_scored ~scored ~pruned;
    (best, front)
