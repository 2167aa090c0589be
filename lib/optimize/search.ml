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

(* ---------- incremental SPFM evaluation ----------

   [evaluate] re-runs [Fmeda.apply] over the whole table and re-derives
   the metric component by component — O(rows × deployments + rows ×
   components) per candidate, which dominates the search loops.  The
   evaluator below precomputes the per-row failure-rate shares and the
   per-component single-point sums once, then rescores only the
   components a deployment set actually touches.  Floating-point folds
   are replayed in exactly [Metrics.compute]'s order (row order within a
   component, first-SR-appearance order across components), so the result
   is bit-identical to [evaluate]. *)

type eval_row = {
  er_component : string;  (* lowercased, for deployment matching *)
  er_failure_mode : string;  (* lowercased *)
  er_safety_related : bool;
  er_base_spf : float;  (* the row's single_point_fit in the input table *)
  er_share : float;  (* λ share of this failure mode (SR rows only) *)
}

type eval_component = {
  ec_fit : float;  (* component FIT (first row, as in Metrics.compute) *)
  ec_rows : eval_row array;  (* every row of the component, in table order *)
  ec_base_spf : float;  (* fold of er_base_spf, row order *)
}

type evaluator = {
  ev_components : eval_component array;  (* SR components, first-appearance order *)
}

let make_evaluator (table : Fmea.Table.t) =
  let eval_row (r : Fmea.Table.row) =
    {
      er_component = String.lowercase_ascii r.Fmea.Table.component;
      er_failure_mode = String.lowercase_ascii r.Fmea.Table.failure_mode;
      er_safety_related = r.Fmea.Table.safety_related;
      er_base_spf = r.Fmea.Table.single_point_fit;
      er_share =
        (if r.Fmea.Table.safety_related then
           Reliability.Fit.share r.Fmea.Table.component_fit
             ~distribution_pct:r.Fmea.Table.distribution_pct
         else 0.0);
    }
  in
  let components =
    List.map
      (fun c ->
        let rows = Fmea.Table.rows_for table c in
        let fit =
          match rows with
          | (r : Fmea.Table.row) :: _ -> r.Fmea.Table.component_fit
          | [] -> 0.0
        in
        let ec_rows = Array.of_list (List.map eval_row rows) in
        let ec_base_spf =
          Array.fold_left (fun acc er -> acc +. er.er_base_spf) 0.0 ec_rows
        in
        { ec_fit = fit; ec_rows; ec_base_spf })
      (Fmea.Table.safety_related_components table)
  in
  { ev_components = Array.of_list components }

let evaluate_with ev deployments =
  (* Best matching deployment per row — [Fmeda.apply]'s fold verbatim
     (highest coverage wins, first deployment wins coverage ties). *)
  let best_for er =
    List.fold_left
      (fun acc (d : Fmea.Fmeda.deployment) ->
        if
          String.equal
            (String.lowercase_ascii d.Fmea.Fmeda.target_component)
            er.er_component
          && String.equal
               (String.lowercase_ascii d.Fmea.Fmeda.target_failure_mode)
               er.er_failure_mode
        then
          match acc with
          | Some (b : Fmea.Fmeda.deployment)
            when b.Fmea.Fmeda.mechanism.Reliability.Sm_model.coverage_pct
                 >= d.Fmea.Fmeda.mechanism.Reliability.Sm_model.coverage_pct ->
              acc
          | Some _ | None -> Some d
        else acc)
      None deployments
  in
  let component_spf ec =
    let touched =
      deployments <> []
      && Array.exists (fun er -> best_for er <> None) ec.ec_rows
    in
    if not touched then ec.ec_base_spf
    else
      Array.fold_left
        (fun acc er ->
          let spf =
            match best_for er with
            | None -> er.er_base_spf
            | Some d ->
                if er.er_safety_related then
                  Reliability.Fit.residual er.er_share
                    ~coverage_pct:
                      d.Fmea.Fmeda.mechanism.Reliability.Sm_model.coverage_pct
                else 0.0
          in
          acc +. spf)
        0.0 ec.ec_rows
  in
  let safety_related_fit =
    Array.fold_left (fun acc ec -> acc +. ec.ec_fit) 0.0 ev.ev_components
  in
  let single_point_fit =
    Array.fold_left (fun acc ec -> acc +. component_spf ec) 0.0 ev.ev_components
  in
  let spfm_pct =
    if safety_related_fit <= 0.0 then 100.0
    else 100.0 *. (1.0 -. (single_point_fit /. safety_related_fit))
  in
  { deployments; spfm_pct; cost = Fmea.Fmeda.total_cost deployments }

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
   single-point fold and the running total over components.  A step
   whose lowest changed digit is slot [p] re-folds only the components
   whose rows slots [p..] match, then the cost and component prefixes
   after them.  Every fold replays [Metrics.compute]'s order (row order
   within a component, first-appearance order across components) and
   [Fmeda.total_cost]'s slot order, so each candidate is bit-identical
   to {!evaluate}. *)

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
   deployment matches it (ascending, i.e. in deployment-list order), and
   per matching slot and option the FIT it leaves single-point. *)
type scan_row = {
  sr_base : float;
  sr_slots : int array;
  sr_spf : float array array;
}

(* Everything a window scan reads, resolved once per fold.  Immutable
   after construction, so the pool's domains share it. *)
type scan = {
  sc_options : Fmea.Fmeda.deployment array array;  (* slot -> option *)
  sc_cost : float array array;
  sc_coverage : float array array;
  sc_radix : int array;
  sc_weight : int array;  (* mixed-radix place value of each slot *)
  sc_rows : scan_row array array;  (* SR component -> its rows *)
  sc_affected : int array array;
      (* p -> the components whose rows slots [p..] match, ascending *)
  sc_sr_fit : float;
}

let make_scan ev slots =
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
  let sc_radix = Array.map (fun o -> Array.length o + 1) sc_options in
  let sc_weight = Array.make n 1 in
  for i = n - 2 downto 0 do
    sc_weight.(i) <- sc_weight.(i + 1) * sc_radix.(i + 1)
  done;
  (* [Fmeda.matches] compares lowercased names: lowercase each slot once
     (the evaluator's rows already are). *)
  let slot_keys =
    Array.map
      (fun s ->
        ( String.lowercase_ascii s.slot_component,
          String.lowercase_ascii s.slot_failure_mode ))
      slots
  in
  let scan_row er =
    let sr_slots =
      List.init n Fun.id
      |> List.filter (fun i ->
             let c, fm = slot_keys.(i) in
             String.equal c er.er_component && String.equal fm er.er_failure_mode)
      |> Array.of_list
    in
    {
      sr_base = er.er_base_spf;
      sr_slots;
      sr_spf =
        Array.map
          (fun i ->
            Array.map
              (fun coverage_pct ->
                if er.er_safety_related then
                  Reliability.Fit.residual er.er_share ~coverage_pct
                else 0.0)
              sc_coverage.(i))
          sr_slots;
    }
  in
  let sc_rows =
    Array.map (fun ec -> Array.map scan_row ec.ec_rows) ev.ev_components
  in
  let m = Array.length sc_rows in
  let touched = Array.make m false in
  let sc_affected = Array.make n [||] in
  for p = n - 1 downto 0 do
    Array.iteri
      (fun c rows ->
        if Array.exists (fun r -> Array.mem p r.sr_slots) rows then
          touched.(c) <- true)
      sc_rows;
    sc_affected.(p) <-
      Array.of_list (List.filter (Array.get touched) (List.init m Fun.id))
  done;
  {
    sc_options;
    sc_cost = per_option (fun _ m -> m.Reliability.Sm_model.cost);
    sc_coverage;
    sc_radix;
    sc_weight;
    sc_rows;
    sc_affected;
    sc_sr_fit =
      Array.fold_left (fun acc ec -> acc +. ec.ec_fit) 0.0 ev.ev_components;
  }

(* The digit vector of counter value [k]. *)
let decode sc k =
  Array.init (Array.length sc.sc_radix) (fun i ->
      k / sc.sc_weight.(i) mod sc.sc_radix.(i))

(* Advance a digit vector by one and return the lowest changed digit.
   Never called past the last combination, so the carry stops inside
   the vector. *)
let increment sc digit =
  let p = ref (Array.length digit - 1) in
  while digit.(!p) + 1 = sc.sc_radix.(!p) do
    digit.(!p) <- 0;
    decr p
  done;
  digit.(!p) <- digit.(!p) + 1;
  !p

(* Score the [len] candidates from counter [base] on, in counter order,
   into unboxed SPFM and cost arrays: a window's scores hold no pointers,
   so nothing it computes is promoted out of the minor heap.  The state
   is seeded by a full fold at [base]; each later step pays only for the
   digits it changes. *)
let scan_window sc (base, len) =
  let n = Array.length sc.sc_radix in
  let m = Array.length sc.sc_rows in
  let digit = decode sc base in
  let cost_prefix = Array.make n 0.0 in
  let component_spf = Array.make m 0.0 in
  let spf_prefix = Array.make m 0.0 in
  (* Per row, the deploying matching slot is [Fmeda.apply]'s: highest
     coverage wins, the earlier slot wins a coverage tie. *)
  let refold_component c =
    let rows = sc.sc_rows.(c) in
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
      acc := !acc +. !spf
    done;
    component_spf.(c) <- !acc
  in
  let refold_costs ~from =
    for i = from to n - 1 do
      let prev = if i = 0 then 0.0 else cost_prefix.(i - 1) in
      let d = digit.(i) in
      cost_prefix.(i) <- (if d = 0 then prev else prev +. sc.sc_cost.(i).(d - 1))
    done
  in
  let refold_spf ~from =
    for j = from to m - 1 do
      let prev = if j = 0 then 0.0 else spf_prefix.(j - 1) in
      spf_prefix.(j) <- prev +. component_spf.(j)
    done
  in
  let spfm = Array.make len 0.0 and cost = Array.make len 0.0 in
  let record k =
    let single_point_fit = if m = 0 then 0.0 else spf_prefix.(m - 1) in
    spfm.(k) <-
      (if sc.sc_sr_fit <= 0.0 then 100.0
       else 100.0 *. (1.0 -. (single_point_fit /. sc.sc_sr_fit)));
    cost.(k) <- (if n = 0 then 0.0 else cost_prefix.(n - 1))
  in
  refold_costs ~from:0;
  for c = 0 to m - 1 do
    refold_component c
  done;
  refold_spf ~from:0;
  record 0;
  for k = 1 to len - 1 do
    let p = increment sc digit in
    refold_costs ~from:p;
    let affected = sc.sc_affected.(p) in
    Array.iter refold_component affected;
    if Array.length affected > 0 then refold_spf ~from:affected.(0);
    record k
  done;
  (spfm, cost)

(* Fold [f] over a scored window: walk the same counter range, building
   each candidate's deployment list (slot order) next to its scores. *)
let fold_window sc f acc ((base, len), (spfm, cost)) =
  let digit = decode sc base in
  let acc = ref acc in
  for k = 0 to len - 1 do
    if k > 0 then ignore (increment sc digit);
    let deployments = ref [] in
    for i = Array.length digit - 1 downto 0 do
      let d = digit.(i) in
      if d > 0 then deployments := sc.sc_options.(i).(d - 1) :: !deployments
    done;
    acc := f !acc { deployments = !deployments; spfm_pct = spfm.(k); cost = cost.(k) }
  done;
  !acc

let exhaustive_fold ?(component_types = []) ?(max_combinations = 2_000_000)
    ?(window = default_window) ?evaluator table sm_model ~init ~f =
  let slots = slots ~component_types table sm_model in
  let combinations = combination_count slots in
  if combinations > max_combinations then
    invalid_arg
      (Printf.sprintf
         "Search.exhaustive: %d combinations exceed the limit of %d"
         combinations max_combinations);
  let ev =
    match evaluator with Some ev -> ev | None -> make_evaluator table
  in
  let sc = make_scan ev slots in
  let window = max 1 window in
  (* One pool task per window.  A round holds one window per worker, so
     at most [jobs * window] scores are alive at once; rounds, and the
     windows within a round, are folded in counter order. *)
  let per_round = Exec.default_jobs () in
  let rec round base k =
    if k = 0 || base >= combinations then []
    else
      let len = min window (combinations - base) in
      (base, len) :: round (base + len) (k - 1)
  in
  let rec go acc base =
    if base >= combinations then acc
    else
      let windows = round base per_round in
      let scores =
        Exec.scheduled_map ~key:"optimize.search" (scan_window sc) windows
      in
      go
        (List.fold_left (fold_window sc f) acc (List.combine windows scores))
        (List.fold_left (fun b (_, len) -> b + len) base windows)
  in
  go init 0

let exhaustive ?(component_types = []) ?(max_combinations = 200_000) ?evaluator
    table sm_model =
  List.rev
    (exhaustive_fold ~component_types ~max_combinations ?evaluator table
       sm_model ~init:[] ~f:(fun acc c -> c :: acc))

let greedy ?(component_types = []) ?evaluator ~target table sm_model =
  let all_slots = slots ~component_types table sm_model in
  let ev =
    match evaluator with Some ev -> ev | None -> make_evaluator table
  in
  let target_spfm = Fmea.Asil.spfm_target target in
  let met spfm =
    match target_spfm with None -> true | Some t -> spfm >= t
  in
  let rec step current =
    let current_candidate = evaluate_with ev current in
    if met current_candidate.spfm_pct then current_candidate
    else begin
      (* Candidate moves: deploy a mechanism on an empty slot, or upgrade
         the mechanism on an occupied one.  Score is SPFM gain per added
         cost (upgrades count only the cost delta, floored so free or
         cheaper upgrades are strongly preferred).  Moves are enumerated
         sequentially (fixing the tie-break order), scored on the domain
         pool, then folded in enumeration order — the same move wins as
         in a sequential run. *)
      let slot_matches s (d : Fmea.Fmeda.deployment) =
        String.equal d.Fmea.Fmeda.target_component s.slot_component
        && String.equal d.Fmea.Fmeda.target_failure_mode s.slot_failure_mode
      in
      let moves =
        List.concat_map
          (fun s ->
            let existing = List.find_opt (slot_matches s) current in
            let others = List.filter (fun d -> not (slot_matches s d)) current in
            List.filter_map
              (fun (m : Reliability.Sm_model.mechanism) ->
                let already =
                  match existing with
                  | Some d -> d.Fmea.Fmeda.mechanism = m
                  | None -> false
                in
                if already then None
                else
                  let d =
                    Fmea.Fmeda.deploy ~component:s.slot_component
                      ~failure_mode:s.slot_failure_mode m
                  in
                  Some (d :: others, m, existing))
              s.slot_options)
          all_slots
      in
      let scored =
        Exec.scheduled_map ~key:"optimize.greedy"
          (fun (next, (m : Reliability.Sm_model.mechanism), existing) ->
            let c = evaluate_with ev next in
            let gain = c.spfm_pct -. current_candidate.spfm_pct in
            let cost_delta =
              m.Reliability.Sm_model.cost
              -.
              match existing with
              | Some (e : Fmea.Fmeda.deployment) ->
                  e.Fmea.Fmeda.mechanism.Reliability.Sm_model.cost
              | None -> 0.0
            in
            (next, gain, gain /. Float.max cost_delta 0.01))
          moves
      in
      let best =
        List.fold_left
          (fun acc (next, gain, score) ->
            if gain <= 0.0 then acc
            else
              match acc with
              | Some (_, best_score) when best_score >= score -> acc
              | Some _ | None -> Some (next, score))
          None scored
      in
      match best with
      | None -> current_candidate (* no mechanism helps further *)
      | Some (next, _) -> step next
    end
  in
  step []

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

let optimise ?(component_types = []) ?evaluator ~target table sm_model =
  let target_spfm = Fmea.Asil.spfm_target target in
  let meets c =
    match target_spfm with None -> true | Some t -> c.spfm_pct >= t
  in
  match
    exhaustive_fold ~component_types ?evaluator table sm_model
      ~init:(None, [])
      ~f:(fun (best, front) c ->
        (cheapest_step ~meets best c, front_insert front c))
  with
  | best, front -> (best, front)
  | exception Invalid_argument _ ->
      let g = greedy ~component_types ?evaluator ~target table sm_model in
      (Some g, [ g ])
