(* Batch-fleet analysis: N design variants through one warm pipeline,
   summarised per variant and for the fleet as a whole. *)

type fmea_entry = {
  b_label : string;
  b_system : string;
  b_rows : int;
  b_safety_related : int;
  b_spfm_pct : float;
  b_single_point_fit : float;
  b_table : Fmea.Table.t;
}

type fleet_summary = {
  f_entries : fmea_entry list;
  f_rows : int;
  f_safety_related : int;
  f_distinct_designs : int;
}

(* The fleet run has already converted and fingerprinted every variant
   through [pipeline]'s memos. *)
let distinct_designs pipeline variants =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (_, diagram) ->
      Hashtbl.replace seen
        (Fingerprint.to_hex (Pipeline.structure_fingerprint pipeline diagram))
        ())
    variants;
  Hashtbl.length seen

let entry_of (label, (table : Fmea.Table.t)) =
  let safety_related =
    List.length
      (List.filter
         (fun (r : Fmea.Table.row) -> r.Fmea.Table.safety_related)
         table.Fmea.Table.rows)
  in
  {
    b_label = label;
    b_system = table.Fmea.Table.system_name;
    b_rows = List.length table.Fmea.Table.rows;
    b_safety_related = safety_related;
    b_spfm_pct = Fmea.Metrics.spfm table;
    b_single_point_fit = Fmea.Metrics.residual_total_fit table;
    b_table = table;
  }

let run_fmea pipeline ~options variants reliability =
  let entries =
    List.map entry_of
      (Pipeline.injection_fmea_fleet pipeline ~options variants reliability)
  in
  {
    f_entries = entries;
    f_rows = List.fold_left (fun acc e -> acc + e.b_rows) 0 entries;
    f_safety_related =
      List.fold_left (fun acc e -> acc + e.b_safety_related) 0 entries;
    f_distinct_designs = distinct_designs pipeline variants;
  }

let pp_summary ppf s =
  Format.fprintf ppf
    "batch FMEA fleet: %d variant(s), %d distinct circuit design(s)@\n"
    (List.length s.f_entries) s.f_distinct_designs;
  Format.fprintf ppf "  %-24s %-12s %5s %8s %9s %12s@\n" "variant" "system"
    "rows" "safety" "SPFM" "residual FIT";
  List.iter
    (fun e ->
      Format.fprintf ppf "  %-24s %-12s %5d %8d %8.2f%% %12.3f@\n" e.b_label
        e.b_system e.b_rows e.b_safety_related e.b_spfm_pct
        e.b_single_point_fit)
    s.f_entries;
  Format.fprintf ppf "  %-24s %-12s %5d %8d" "fleet total" "" s.f_rows
    s.f_safety_related

let to_csv s =
  let header =
    [
      "Variant";
      "System";
      "Rows";
      "Safety_Related";
      "SPFM_Pct";
      "Residual_FIT";
    ]
  in
  header
  :: List.map
       (fun e ->
         [
           e.b_label;
           e.b_system;
           string_of_int e.b_rows;
           string_of_int e.b_safety_related;
           Printf.sprintf "%.4f" e.b_spfm_pct;
           Printf.sprintf "%.6f" e.b_single_point_fit;
         ])
       s.f_entries
