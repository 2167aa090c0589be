type t = [ `Auto | `Full | `Lazy ]

let to_string = function `Auto -> "auto" | `Full -> "full" | `Lazy -> "lazy"

let of_string = function
  | "auto" -> Some `Auto
  | "full" -> Some `Full
  | "lazy" -> Some `Lazy
  | _ -> None

let units_of spec =
  let per_unit = Stdlib.max 1 Fixtures.Synthetic.unit_elements in
  Stdlib.max 1
    ((spec.Fixtures.Synthetic.target_elements + per_unit - 1) / per_unit)

let choose ?budget spec =
  let fits_in_budget =
    match budget with
    | None -> true
    | Some b ->
        spec.Fixtures.Synthetic.target_elements * Budget.bytes_per_element
        <= Budget.max_bytes b - Budget.used_bytes b
  in
  if not fits_in_budget then `Lazy
  else
    (* Stream only when there is enough work to plausibly amortise
       window dispatch: at least a few windows' worth of units. *)
    let tasks = units_of spec in
    if tasks >= 4 * Exec.default_jobs () then `Lazy else `Full

let evaluate_full ~budget spec =
  match Full_store.load ~budget spec with
  | Error (`Memory_overflow _) as e -> e
  | Ok loaded ->
      let elements = Full_store.element_count loaded in
      let safety_related = Full_store.evaluate loaded in
      Full_store.release ~budget loaded;
      Ok (elements, safety_related)

let evaluate ?(backend = `Auto) ?budget spec =
  let backend =
    match backend with
    | `Full -> `Full
    | `Lazy -> `Lazy
    | `Auto -> choose ?budget spec
  in
  match backend with
  | `Full ->
      let budget =
        match budget with
        | Some b -> b
        | None ->
            (* The full store's API is budgeted; "no budget" is an
               effectively-unbounded one. *)
            Budget.create ~max_bytes:max_int
      in
      evaluate_full ~budget spec
  | `Lazy -> Lazy_store.evaluate ?budget spec
