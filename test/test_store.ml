(* Tests for the scalability substrate: budgets, synthetic model sets and
   the full vs lazy stores (Table VI's memory-overflow behaviour). *)

open Fixtures
open Harness

let test_budget () =
  let b = Budget.create ~max_bytes:(Budget.bytes_per_element * 10) in
  Budget.charge_elements b 6;
  Alcotest.(check int) "used" (6 * Budget.bytes_per_element) (Budget.used_bytes b);
  (match Budget.charge_elements b 5 with
  | exception Budget.Overflow { requested; available } ->
      Alcotest.(check int) "requested" (5 * Budget.bytes_per_element) requested;
      Alcotest.(check int) "available" (4 * Budget.bytes_per_element) available
  | () -> Alcotest.fail "expected Overflow");
  (* Failed charge leaves the budget unchanged; release works. *)
  Alcotest.(check int) "unchanged" (6 * Budget.bytes_per_element) (Budget.used_bytes b);
  Budget.release_elements b 6;
  Alcotest.(check int) "released" 0 (Budget.used_bytes b);
  Budget.release_elements b 100;
  Alcotest.(check int) "floor at zero" 0 (Budget.used_bytes b)

let test_synthetic_exact_counts () =
  (* iter_units delivers exactly the requested element count. *)
  List.iter
    (fun target ->
      let spec = { Synthetic.set_name = "t"; target_elements = target } in
      let counted = ref 0 in
      let total =
        Synthetic.iter_units spec (fun c ->
            counted := !counted + Ssam.Architecture.count_elements c)
      in
      Alcotest.(check int) (Printf.sprintf "reported total %d" target) target total;
      Alcotest.(check int) (Printf.sprintf "delivered total %d" target) target !counted)
    [ 1; 2; 50; 109; 269; 1369; 5689 ]

let test_table_vi_sets () =
  let sizes =
    List.map (fun s -> s.Synthetic.target_elements) Synthetic.table_vi_sets
  in
  Alcotest.(check (list int)) "paper sizes"
    [ 109; 269; 1369; 5689; 5_689_000; 568_990_000 ]
    sizes

let test_scaled () =
  let set4 = List.nth Synthetic.table_vi_sets 4 in
  let s = Synthetic.scaled set4 ~factor:100 in
  Alcotest.(check int) "scaled" 56_890 s.Synthetic.target_elements;
  let tiny = Synthetic.scaled { Synthetic.set_name = "x"; target_elements = 5 } ~factor:100 in
  Alcotest.(check int) "floor at 1" 1 tiny.Synthetic.target_elements

let test_unit_structure () =
  let u = Synthetic.unit_composite ~index:1 in
  Alcotest.(check int) "unit element count" Synthetic.unit_elements
    (Ssam.Architecture.count_elements u);
  (* Units analyse deterministically: the chain children (minus the
     redundant one) are single points; branches are not. *)
  let t = Fmea.Path_fmea.analyse u in
  let sr = Fmea.Table.safety_related_components t in
  Alcotest.(check bool) "chain child SR" true (List.mem "u1-c1" sr);
  Alcotest.(check bool) "redundant child tolerated" false (List.mem "u1-c5" sr);
  Alcotest.(check bool) "branch child not SR" false (List.mem "u1-b1" sr)

let test_materialise () =
  let spec = { Synthetic.set_name = "m"; target_elements = 300 } in
  let model = Synthetic.materialise spec in
  (* The model adds its own meta and the package wrapper (+2). *)
  Alcotest.(check int) "model elements" 302 (Ssam.Model.count_elements model)

let test_full_store_loads_small () =
  let budget = Budget.create ~max_bytes:(10 * 1024 * 1024) in
  match Full_store.load ~budget { Synthetic.set_name = "s"; target_elements = 1369 } with
  | Ok loaded ->
      Alcotest.(check int) "elements" 1369 (Full_store.element_count loaded);
      Alcotest.(check bool) "some units" true (Full_store.unit_count loaded > 0);
      let sr = Full_store.evaluate loaded in
      Alcotest.(check bool) "analysis finds single points" true (sr > 0);
      Full_store.release ~budget loaded;
      Alcotest.(check int) "budget released" 0 (Budget.used_bytes budget)
  | Error (`Memory_overflow _) -> Alcotest.fail "should fit"

let test_full_store_overflows_like_emf () =
  (* A budget an order of magnitude too small: loading dies midway, the
     way SAME's EMF loading died on Set5. *)
  let budget = Budget.create ~max_bytes:(100 * Budget.bytes_per_element) in
  match Full_store.load ~budget { Synthetic.set_name = "big"; target_elements = 10_000 } with
  | Error (`Memory_overflow bytes) ->
      Alcotest.(check bool) "got partway" true (bytes > 0);
      Alcotest.(check int) "budget rolled back" 0 (Budget.used_bytes budget)
  | Ok _ -> Alcotest.fail "expected overflow"

let test_lazy_store_handles_what_full_cannot () =
  let spec = { Synthetic.set_name = "big"; target_elements = 10_000 } in
  let small_budget () = Budget.create ~max_bytes:(200 * Budget.bytes_per_element) in
  (* Full store overflows... *)
  (match Full_store.load ~budget:(small_budget ()) spec with
  | Error (`Memory_overflow _) -> ()
  | Ok _ -> Alcotest.fail "full store should overflow");
  (* ...the lazy store streams through under the same budget. *)
  match Lazy_store.evaluate ~budget:(small_budget ()) spec with
  | Ok (elements, sr) ->
      Alcotest.(check int) "processed everything" 10_000 elements;
      Alcotest.(check bool) "found single points" true (sr > 0)
  | Error (`Memory_overflow _) -> Alcotest.fail "lazy store should stream"

let test_stores_agree () =
  (* Same analysis answer through both stores. *)
  let spec = { Synthetic.set_name = "agree"; target_elements = 1369 } in
  let budget = Budget.create ~max_bytes:(10 * 1024 * 1024) in
  let full =
    match Full_store.load ~budget spec with
    | Ok l -> Full_store.evaluate l
    | Error _ -> Alcotest.fail "full load failed"
  in
  let lazy_result =
    match Lazy_store.evaluate spec with
    | Ok (_, sr) -> sr
    | Error _ -> Alcotest.fail "lazy failed"
  in
  Alcotest.(check int) "same verdicts" full lazy_result

let test_backend_auto () =
  (* A set the budget cannot hold must stream, whatever the scheduler
     thinks. *)
  let tight = Budget.create ~max_bytes:(Budget.bytes_per_element * 10) in
  let big = { Synthetic.set_name = "big"; target_elements = 10_000 } in
  Alcotest.(check bool) "overflow forces lazy" true
    (Backend.choose ~budget:tight big = `Lazy);
  (* A single-unit set is never worth windowed dispatch. *)
  let small = { Synthetic.set_name = "small"; target_elements = 50 } in
  Alcotest.(check bool) "single unit stays full" true
    (Backend.choose small = `Full);
  (* Whatever `Auto picks, the answer matches both explicit backends. *)
  List.iter
    (fun target ->
      let spec = { Synthetic.set_name = "auto-agree"; target_elements = target } in
      let via b =
        match Backend.evaluate ~backend:b spec with
        | Ok (_, sr) -> sr
        | Error _ -> Alcotest.fail "evaluate failed"
      in
      let auto = via `Auto in
      Alcotest.(check int) "auto = full" (via `Full) auto;
      Alcotest.(check int) "auto = lazy" (via `Lazy) auto)
    [ 109; 1369 ]

let test_backend_names () =
  List.iter
    (fun b ->
      Alcotest.(check bool) "name round-trips" true
        (Backend.of_string (Backend.to_string b) = Some b))
    [ `Auto; `Full; `Lazy ];
  Alcotest.(check bool) "unknown rejected" true (Backend.of_string "mmap" = None)

let test_lazy_peak_memory () =
  (* Peak residency is one unit per worker; with one worker that is the
     seed's "peak is one unit" guarantee. *)
  let spec = { Synthetic.set_name = "x"; target_elements = 1_000_000 } in
  let saved = Exec.default_jobs () in
  Fun.protect
    ~finally:(fun () -> Exec.set_default_jobs saved)
    (fun () ->
      Exec.set_default_jobs 1;
      Alcotest.(check int) "peak is one unit" Synthetic.unit_elements
        (Lazy_store.peak_resident_elements spec);
      Exec.set_default_jobs 4;
      Alcotest.(check int) "peak is one unit per worker"
        (4 * Synthetic.unit_elements)
        (Lazy_store.peak_resident_elements spec))

let prop_synthetic_any_size =
  QCheck.Test.make ~name:"synthetic generator hits any target exactly" ~count:60
    QCheck.(int_range 1 20_000)
    (fun target ->
      let spec = { Synthetic.set_name = "q"; target_elements = target } in
      let counted = ref 0 in
      let _ = Synthetic.iter_units spec (fun c ->
          counted := !counted + Ssam.Architecture.count_elements c)
      in
      !counted = target)

let suite =
  [
    Alcotest.test_case "budget" `Quick test_budget;
    Alcotest.test_case "synthetic exact counts" `Quick test_synthetic_exact_counts;
    Alcotest.test_case "table VI sets" `Quick test_table_vi_sets;
    Alcotest.test_case "scaled" `Quick test_scaled;
    Alcotest.test_case "unit structure" `Quick test_unit_structure;
    Alcotest.test_case "materialise" `Quick test_materialise;
    Alcotest.test_case "full store loads small" `Quick test_full_store_loads_small;
    Alcotest.test_case "full store overflows like EMF" `Quick
      test_full_store_overflows_like_emf;
    Alcotest.test_case "lazy store streams past the budget" `Quick
      test_lazy_store_handles_what_full_cannot;
    Alcotest.test_case "stores agree" `Quick test_stores_agree;
    Alcotest.test_case "backend auto policy" `Quick test_backend_auto;
    Alcotest.test_case "backend names" `Quick test_backend_names;
    Alcotest.test_case "lazy peak memory" `Quick test_lazy_peak_memory;
    QCheck_alcotest.to_alcotest prop_synthetic_any_size;
  ]
