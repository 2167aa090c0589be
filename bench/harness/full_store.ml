type loaded = { units : Ssam.Architecture.component list; elements : int }

let load ~budget spec =
  let units = ref [] in
  match
    Fixtures.Synthetic.iter_units spec (fun c ->
        Budget.charge_elements budget (Ssam.Architecture.count_elements c);
        units := c :: !units)
  with
  | total -> Ok { units = List.rev !units; elements = total }
  | exception Budget.Overflow _ ->
      (* Loading died midway, as EMF did; report how much was resident. *)
      let used = Budget.used_bytes budget in
      Budget.release_elements budget (used / Budget.bytes_per_element);
      Error (`Memory_overflow used)

let element_count l = l.elements

let unit_count l = List.length l.units

let unit_verdicts unit =
  let table = Fmea.Path_fmea.analyse unit in
  List.length
    (List.filter
       (fun (r : Fmea.Table.row) -> r.Fmea.Table.safety_related)
       table.Fmea.Table.rows)

let evaluate l =
  (* Every unit is already resident, so the per-unit path FMEAs are
     independent pure computations: schedule them across worker domains
     (the cost model keeps small sets sequential) and add the verdict
     counts in unit order (integer sums — identical to the sequential
     result for any schedule). *)
  List.fold_left ( + ) 0
    (Exec.scheduled_map ~key:"store.evaluate" unit_verdicts l.units)

let release ~budget l =
  List.iter
    (fun c ->
      Budget.release_elements budget (Ssam.Architecture.count_elements c))
    l.units
