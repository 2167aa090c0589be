(* Bounded memo, least recently used evicted.  Within a session the
   engine keeps meeting the same in-memory values — the warm path
   re-fingerprints the previous diagram it analysed a moment ago, a
   fleet shares one reliability model across every variant — and the
   derived values (fingerprints, netlist conversions, SSAM views) are
   pure.  Those memos are keyed by [==] (the default [eq]): content
   hashing is exactly the cost being avoided.  A miss on a
   structurally-equal-but-fresh value only costs the recompute, so the
   memo can never serve a stale answer.  The live memos of values
   Marshal cannot carry are keyed by fingerprint hex instead. *)
module Memo = struct
  type ('a, 'b) t = { mutable entries : ('a * 'b) list; cap : int }

  let create cap = { entries = []; cap }

  let rec truncate n = function
    | [] -> []
    | _ :: _ when n = 0 -> []
    | x :: rest -> x :: truncate (n - 1) rest

  let length m = List.length m.entries

  let find_or ?(eq = fun a b -> a == b) m lock key compute =
    let others () = List.filter (fun (k, _) -> not (eq k key)) m.entries in
    Mutex.lock lock;
    let hit = List.find_opt (fun (k, _) -> eq k key) m.entries in
    Option.iter (fun e -> m.entries <- e :: others ()) hit;
    Mutex.unlock lock;
    match hit with
    | Some (_, v) -> v
    | None ->
        let v = compute () in
        Mutex.lock lock;
        (* A racing computation may have beaten us; last write wins — the
           values are equal by construction. *)
        m.entries <- truncate m.cap ((key, v) :: others ());
        Mutex.unlock lock;
        v
end

(* The most golden runs a pipeline holds at once. *)
let live_cap = 32

type t = {
  p_cache : Cache.t;
  p_stats : Stats.t;
  (* Live memo for values Marshal cannot carry (solutions hold solver
     state).  Keyed by fingerprint hex, [live_cap] entries; guarded by
     [lock]. *)
  golden_runs : (string, Fmea.Injection_fmea.prepared) Memo.t;
  (* Identity memos for the per-call fixed costs of the FMEA entry
     points; these dominate a warm one-edit run at small system sizes. *)
  fp_diagrams : (Blockdiag.Diagram.t, Fingerprint.t) Memo.t;
  fp_models : (Reliability.Reliability_model.t, Fingerprint.t) Memo.t;
  conversions : (Blockdiag.Diagram.t, Blockdiag.To_netlist.result) Memo.t;
  fp_structures : (Circuit.Netlist.t, Fingerprint.t) Memo.t;
  ssam_views : (Blockdiag.Diagram.t * Reliability.Reliability_model.t, Ssam.Model.t) Memo.t;
  lock : Mutex.t;
}

let create ?cache () =
  {
    p_cache = (match cache with Some c -> c | None -> Cache.create ());
    p_stats = Stats.create ();
    golden_runs = Memo.create live_cap;
    fp_diagrams = Memo.create 8;
    fp_models = Memo.create 8;
    conversions = Memo.create 8;
    fp_structures = Memo.create 8;
    ssam_views = Memo.create 8;
    lock = Mutex.create ();
  }

let cache t = t.p_cache
let stats t = t.p_stats
let snapshot t = Stats.snapshot t.p_stats

let golden_runs_held t =
  Mutex.lock t.lock;
  let n = Memo.length t.golden_runs in
  Mutex.unlock t.lock;
  n

(* ---------- generic memoisation ---------- *)

(* The payload digest was already verified by [Cache.find]; unmarshal
   failure guards against a stage/type confusion bug rather than disk
   rot. *)
let unmarshal payload = try Some (Marshal.from_string payload 0) with _ -> None

(* Find-only half of [memo] (hit counters included), so the fleet driver
   can separate its cached variants from its pending ones before
   batching the pending work. *)
let cache_find t k =
  match Cache.find t.p_cache k with
  | Some (`Memory payload) -> (
      match unmarshal payload with
      | Some v ->
          Stats.incr_mem_hit t.p_stats;
          Some v
      | None -> None)
  | Some (`Disk payload) -> (
      match unmarshal payload with
      | Some v ->
          Stats.incr_disk_hit t.p_stats;
          Some v
      | None -> None)
  | None -> None

let cache_store t k v =
  try
    Cache.store t.p_cache k (Marshal.to_string v []);
    Stats.incr_store t.p_stats
  with _ -> ()

let memo t ~stage ?(version = 1) ~key f =
  let k = Cache.key ~stage ~version key in
  match cache_find t k with
  | Some v -> v
  | None ->
      Stats.incr_miss t.p_stats;
      let v = f () in
      cache_store t k v;
      v

let live_memo t table key compute =
  Memo.find_or ~eq:String.equal table t.lock key compute

(* ---------- incremental injection FMEA ---------- *)

type previous = {
  prev_diagram : Blockdiag.Diagram.t;
  prev_reliability : Reliability.Reliability_model.t;
  prev_table : Fmea.Table.t;
}

(* The SSAM view [Ssam.Diff] compares: the transformed diagram with the
   reliability model aggregated in, so FIT/failure-mode edits made
   through the reliability model surface as Modified components. *)
let ssam_model_of diagram reliability =
  let pkg =
    Blockdiag.Transform.aggregate_reliability reliability
      (Blockdiag.Transform.to_ssam diagram)
  in
  Ssam.Model.create ~component_packages:[ pkg ]
    ~meta:
      (Ssam.Base.meta ("engine:" ^ diagram.Blockdiag.Diagram.diagram_name))
    ()

(* Memoised-by-identity accessors.  A warm engine fills these during the
   previous run, so the one-edit path only pays for what actually
   changed; a cold engine pays every fingerprint from scratch — which is
   what makes warm strictly cheaper than cold. *)
let fp_diagram t d =
  Memo.find_or t.fp_diagrams t.lock d (fun () -> Fingerprint.diagram d)

let fp_model t rm =
  Memo.find_or t.fp_models t.lock rm (fun () ->
      Fingerprint.reliability_model rm)

let convert t d =
  Memo.find_or t.conversions t.lock d (fun () ->
      Blockdiag.To_netlist.convert d)

(* Keyed by the netlist value itself, which [convert]'s identity memo
   keeps stable across a session's edits. *)
let fp_structure_of t netlist =
  Memo.find_or t.fp_structures t.lock netlist (fun () ->
      Fingerprint.netlist_structure netlist)

(* The named fingerprint reuses the structural one: a diagram edit
   encodes its element list once. *)
let fp_netlist_of t netlist =
  Fingerprint.netlist_with_structure netlist
    ~structure:(fp_structure_of t netlist)

let structure_fingerprint t d =
  fp_structure_of t (convert t d).Blockdiag.To_netlist.netlist

let ssam_view t d rm =
  Memo.find_or
    ~eq:(fun (d1, r1) (d2, r2) -> d1 == d2 && r1 == r2)
    t.ssam_views t.lock (d, rm)
    (fun () -> ssam_model_of d rm)

(* Golden runs are keyed by the {e structural} netlist fingerprint (name
   ignored): every observable of a golden run depends only on the
   element list and the options, so design variants with identical
   circuits — a fleet's unmodified baseline copies — share one
   factorisation. *)
let golden_run t ~options ~fp_structure ~fp_options netlist =
  let key = Fingerprint.to_hex (Fingerprint.node [ fp_structure; fp_options ]) in
  live_memo t t.golden_runs key (fun () ->
      let p = Fmea.Injection_fmea.prepare ~options netlist in
      Stats.incr_golden_solve t.p_stats;
      Stats.add_golden_newton t.p_stats
        (Fmea.Injection_fmea.golden_newton_iterations p);
      p)

(* Row-reuse hook: serve a row from the previous table only when that is
   provably bit-identical to recomputation —

   1. the netlist fingerprint is unchanged (so the golden run and every
      faulted solve are unchanged),
   2. the component is NOT in the [Ssam.Diff.impacted_components]
      closure (the changed components and everything downstream are
      re-classified, per the methodology's change-impact contract),
   3. the reliability entry for the row's component type gives one of
      three verdicts:
      - unchanged: the previous row is reused verbatim;
      - only its FIT differs: the previous row is re-priced at the new
        FIT with [Fmea.Table.make_row], keeping its classification.  The
        failure modes, their distributions and fault models are the
        same, and classification ([classify_prepared]) never reads the
        FIT, so the row is the one recomputation would build;
      - anything else changed: the row is recomputed.

   Returns None (no reuse at all) when the netlist moved: an electrical
   edit shifts the golden operating point, which can change any row's
   deviation text. *)
type entry_verdict = Same_entry | Fit_only of Reliability.Fit.t | Changed_entry

let entry_verdict prev_reliability reliability ty =
  let module R = Reliability.Reliability_model in
  match (R.find prev_reliability ty, R.find reliability ty) with
  | None, None -> Same_entry
  | Some a, Some b ->
      if R.equal_entry a b then Same_entry
      else if R.equal_entry { a with R.fit = b.R.fit } b then Fit_only b.R.fit
      else Changed_entry
  | _ -> Changed_entry

let refit fit (r : Fmea.Table.row) =
  Fmea.Table.make_row ~impact:r.Fmea.Table.impact
    ?safety_mechanism:r.Fmea.Table.safety_mechanism
    ?sm_coverage_pct:r.Fmea.Table.sm_coverage_pct ?warning:r.Fmea.Table.warning
    ~component:r.Fmea.Table.component ~component_fit:fit
    ~failure_mode:r.Fmea.Table.failure_mode
    ~distribution_pct:r.Fmea.Table.distribution_pct
    ~safety_related:r.Fmea.Table.safety_related ()

let reuse_hook t ~previous:prev ~diagram ~reliability ~element_types
    ~fp_netlist =
  let prev_conversion = convert t prev.prev_diagram in
  let prev_netlist = prev_conversion.Blockdiag.To_netlist.netlist in
  if
    not
      (Fingerprint.equal
         (fp_netlist_of t prev_netlist)
         fp_netlist)
  then None
  else begin
    let impacted = Hashtbl.create 32 in
    (* When the new diagram is the very value analysed last time — the
       warm incremental-session case, where only reliability entries
       move between edits — the SSAM diff cannot flag anything the
       per-type entry check below does not: with an identical structure,
       a component's aggregated view changes exactly when its type's
       reliability entry does.  Skip the two view builds and the model
       diff; they dominate the warm one-edit cost otherwise. *)
    if prev.prev_diagram != diagram then begin
      let impact =
        Ssam.Diff.analyse
          ~old_model:(ssam_view t prev.prev_diagram prev.prev_reliability)
          ~new_model:(ssam_view t diagram reliability)
      in
      List.iter
        (fun id -> Hashtbl.replace impacted id ())
        impact.Ssam.Diff.impacted_components
    end;
    (* Netlist element ids of subsystem blocks are "sub/block"-qualified;
       SSAM component ids are not.  Check both spellings. *)
    let is_impacted id =
      Hashtbl.mem impacted id
      ||
      match String.rindex_opt id '/' with
      | None -> false
      | Some i ->
          Hashtbl.mem impacted
            (String.sub id (i + 1) (String.length id - i - 1))
    in
    (* Resolved component type per element id, as [Injection_fmea.analyse]
       resolves it. *)
    let types =
      Fmea.Injection_fmea.component_types ~element_types prev_netlist
    in
    (* Component types repeat across rows: judge each type once, before
       the hook runs on worker domains, which then only read the table.
       Structural entry equality is strictly stronger than fingerprint
       equality, so it can only ever reuse less, never wrongly more. *)
    let verdicts = Hashtbl.create 16 in
    Hashtbl.iter
      (fun _ ty ->
        if not (Hashtbl.mem verdicts ty) then
          Hashtbl.add verdicts ty
            (entry_verdict prev.prev_reliability reliability ty))
      types;
    let prev_rows = Hashtbl.create 64 in
    List.iter
      (fun (r : Fmea.Table.row) ->
        let k = r.Fmea.Table.component ^ "\x00" ^ r.Fmea.Table.failure_mode in
        if not (Hashtbl.mem prev_rows k) then Hashtbl.add prev_rows k r)
      prev.prev_table.Fmea.Table.rows;
    Some
      (fun ~component ~failure_mode ->
        match Hashtbl.find_opt types component with
        | None -> None
        | Some ty -> (
            match
              if is_impacted component then Changed_entry
              else Hashtbl.find verdicts ty
            with
            | Changed_entry -> None
            | (Same_entry | Fit_only _) as v -> (
                match
                  Hashtbl.find_opt prev_rows (component ^ "\x00" ^ failure_mode)
                with
                | None -> None
                | Some row ->
                    Stats.incr_row_reused t.p_stats;
                    Some (match v with Fit_only fit -> refit fit row | _ -> row))))
  end

let injection_fmea t ?previous ~options diagram reliability =
  let conversion = convert t diagram in
  let netlist = conversion.Blockdiag.To_netlist.netlist in
  let element_types = conversion.Blockdiag.To_netlist.block_types in
  let fp_netlist = fp_netlist_of t netlist in
  let fp_options = Fingerprint.injection_options options in
  let key =
    Fingerprint.node
      [ fp_diagram t diagram; fp_model t reliability; fp_options ]
  in
  memo t ~stage:"fmea.injection" ~key (fun () ->
      let prepared =
        golden_run t ~options
          ~fp_structure:(fp_structure_of t netlist)
          ~fp_options netlist
      in
      let reuse =
        match previous with
        | None -> None
        | Some prev ->
            reuse_hook t ~previous:prev ~diagram ~reliability ~element_types
              ~fp_netlist
      in
      let on_classified () = Stats.incr_row_classified t.p_stats in
      let on_solved = function
        | `Reused -> Stats.incr_reused t.p_stats
        | `Rank_update _ -> Stats.incr_rank_update t.p_stats
      in
      Fmea.Injection_fmea.analyse ~options ~element_types ~prepared ?reuse
        ~on_classified ~on_solved ~on_newton:(Stats.add_fault_newton t.p_stats)
        netlist reliability)

(* ---------- batch-fleet injection FMEA ---------- *)

let rec take_rows k rows =
  if k = 0 then ([], rows)
  else
    match rows with
    | [] -> invalid_arg "Pipeline: fleet row count mismatch"
    | r :: rest ->
        let a, b = take_rows (k - 1) rest in
        (r :: a, b)

let injection_fmea_fleet t ~options variants reliability =
  let fp_options = Fingerprint.injection_options options in
  (* The reliability model is shared by the whole fleet: fingerprint it
     once, not once per variant. *)
  let fp_reliability = fp_model t reliability in
  (* Resolve every variant against the content-addressed cache first:
     hits are served as in [injection_fmea]; only the misses join the
     flattened batch. *)
  let resolved =
    List.map
      (fun (label, diagram) ->
        let conversion = convert t diagram in
        let netlist = conversion.Blockdiag.To_netlist.netlist in
        let element_types = conversion.Blockdiag.To_netlist.block_types in
        let key =
          Cache.key ~stage:"fmea.injection" ~version:1
            (Fingerprint.node
               [ fp_diagram t diagram; fp_reliability; fp_options ])
        in
        (label, netlist, element_types, key, cache_find t key))
      variants
  in
  (* One golden run per distinct circuit structure: baseline copies in a
     fleet share a factorisation, so N variants of D distinct designs
     cost D golden solves, not N.  And one row batch per distinct cache
     key: duplicate variants (a fleet's unmodified baseline copies)
     classify their rows once and share the table. *)
  let pending_keys = Hashtbl.create 8 in
  let pending =
    List.filter_map
      (fun (label, netlist, element_types, key, cached) ->
        match cached with
        | Some _ -> None
        | None when Hashtbl.mem pending_keys (Cache.key_id key) ->
            Stats.incr_mem_hit t.p_stats;
            None
        | None ->
            Hashtbl.replace pending_keys (Cache.key_id key) ();
            Stats.incr_miss t.p_stats;
            let prepared =
              golden_run t ~options
                ~fp_structure:(fp_structure_of t netlist)
                ~fp_options netlist
            in
            let injections =
              Fmea.Injection_fmea.enumerate ~options ~element_types netlist
                reliability
            in
            Some (label, netlist, key, prepared, injections))
      resolved
  in
  let on_classified () = Stats.incr_row_classified t.p_stats in
  let on_solved = function
    | `Reused -> Stats.incr_reused t.p_stats
    | `Rank_update _ -> Stats.incr_rank_update t.p_stats
  in
  (* Flatten every pending variant's injections into ONE task list: the
     scheduler sees a single large batch instead of N small barriers, and the
     cost model decides once about a workload N times the size. *)
  let flat =
    List.concat_map
      (fun (_, _, _, prepared, injections) ->
        List.map (fun inj -> (prepared, inj)) injections)
      pending
  in
  let rows =
    Exec.scheduled_map ~key:Fmea.Injection_fmea.cost_key
      (fun (prepared, inj) ->
        Fmea.Injection_fmea.injection_row ~on_classified ~on_solved
          ~on_newton:(Stats.add_fault_newton t.p_stats) prepared inj)
      flat
  in
  (* Reassemble the flat rows into per-variant tables (flattening
     preserved both variant order and in-variant row order), store each
     table under its own cache key, and serve the results in input
     order. *)
  let computed = Hashtbl.create 8 in
  let leftover =
    List.fold_left
      (fun rows (_, netlist, key, _, injections) ->
        let taken, rest = take_rows (List.length injections) rows in
        let table =
          { Fmea.Table.system_name = Circuit.Netlist.name netlist; rows = taken }
        in
        cache_store t key table;
        Hashtbl.replace computed (Cache.key_id key) table;
        rest)
      rows pending
  in
  assert (leftover = []);
  List.map
    (fun (label, _, _, key, cached) ->
      match cached with
      | Some table -> (label, table)
      | None -> (label, Hashtbl.find computed (Cache.key_id key)))
    resolved

(* ---------- path FMEA ---------- *)

let path_fmea t ~options root =
  let key =
    Fingerprint.node
      [ Fingerprint.ssam_component root; Fingerprint.path_options options ]
  in
  memo t ~stage:"fmea.path" ~key (fun () ->
      Fmea.Path_fmea.analyse ~options root)

(* ---------- Step 4b search ---------- *)

let optimise t ?(component_types = []) ~target table sm_model =
  let key =
    Fingerprint.node
      [
        Fingerprint.fmea_table table;
        Fingerprint.sm_model sm_model;
        Fingerprint.leaf (Ssam.Requirement.integrity_level_to_string target);
        Fingerprint.leaf
          (String.concat ";"
             (List.map (fun (id, ty) -> id ^ "=" ^ ty) component_types));
      ]
  in
  memo t ~stage:"optimize.search" ~key (fun () ->
      Optimize.Search.optimise ~component_types
        ~on_scored:(Stats.add_search t.p_stats) ~target table sm_model)

(* ---------- assurance ---------- *)

let evaluate_case t case =
  Assurance.Eval.evaluate_with
    (fun a ->
      memo t ~stage:"assurance.claim" ~key:(Fingerprint.artifact a) (fun () ->
          Assurance.Eval.evaluate_artifact a))
    case
