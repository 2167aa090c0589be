let analyse_unit unit =
  let table = Fmea.Path_fmea.analyse unit in
  List.length
    (List.filter
       (fun (r : Fmea.Table.row) -> r.Fmea.Table.safety_related)
       table.Fmea.Table.rows)

(* How many units may be resident at once: one per worker, but never more
   than the memory budget can hold ([Fixtures.Synthetic.unit_elements] bounds every
   generated unit, padding units included).  An unbudgeted run parallelises
   freely; a tight budget degrades gracefully to the sequential window of
   one, whose charge/analyse/release sequence — and overflow behaviour —
   is exactly the pre-parallel store's. *)
let window_units budget =
  let jobs = Exec.default_jobs () in
  match budget with
  | None -> jobs
  | Some b ->
      let fits =
        Budget.max_bytes b / (Budget.bytes_per_element * Fixtures.Synthetic.unit_elements)
      in
      Int.max 1 (Int.min jobs fits)

let evaluate ?budget spec =
  let window = window_units budget in
  let safety_related = ref 0 in
  let buffer = ref [] in
  let buffered = ref 0 in
  let flush () =
    let units = List.rev !buffer in
    buffer := [];
    buffered := 0;
    (* Units were charged on entry (in generation order); analyse the
       whole window across worker domains, then release.  Integer
       verdict counts summed in unit order: bit-identical to the
       sequential store for every window size. *)
    let verdicts =
      Exec.scheduled_map ~key:"store.evaluate"
        (fun (u, _) -> analyse_unit u)
        units
    in
    safety_related := List.fold_left ( + ) !safety_related verdicts;
    List.iter
      (fun (_, n) ->
        match budget with
        | Some b -> Budget.release_elements b n
        | None -> ())
      units
  in
  match
    Fixtures.Synthetic.iter_units spec (fun unit ->
        let n = Ssam.Architecture.count_elements unit in
        (match budget with
        | Some b -> Budget.charge_elements b n
        | None -> ());
        buffer := (unit, n) :: !buffer;
        incr buffered;
        if !buffered >= window then flush ())
  with
  | total ->
      if !buffered > 0 then flush ();
      Ok (total, !safety_related)
  | exception Budget.Overflow _ ->
      let used = match budget with Some b -> Budget.used_bytes b | None -> 0 in
      Error (`Memory_overflow used)

let peak_resident_elements _spec =
  Fixtures.Synthetic.unit_elements * window_units None
