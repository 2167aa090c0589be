type row = {
  component : string;
  component_fit : float;
  failure_mode : string;
  distribution_pct : float;
  safety_related : bool;
  impact : string;
  safety_mechanism : string option;
  sm_coverage_pct : float option;
  single_point_fit : float;
  warning : string option;
}
[@@deriving eq, show]

type t = { system_name : string; rows : row list } [@@deriving eq, show]

let make_row ?(impact = "") ?safety_mechanism ?sm_coverage_pct ?warning
    ~component ~component_fit ~failure_mode ~distribution_pct ~safety_related ()
    =
  let single_point_fit =
    if safety_related then
      let share = Reliability.Fit.share component_fit ~distribution_pct in
      match sm_coverage_pct with
      | Some cov -> Reliability.Fit.residual share ~coverage_pct:cov
      | None -> share
    else 0.0
  in
  {
    component;
    component_fit;
    failure_mode;
    distribution_pct;
    safety_related;
    impact;
    safety_mechanism;
    sm_coverage_pct;
    single_point_fit;
    warning;
  }

let components t =
  List.fold_left
    (fun acc r -> if List.mem r.component acc then acc else r.component :: acc)
    [] t.rows
  |> List.rev

let safety_related_components t =
  List.fold_left
    (fun acc r ->
      if r.safety_related && not (List.mem r.component acc) then
        r.component :: acc
      else acc)
    [] t.rows
  |> List.rev

let rows_for t component =
  List.filter (fun r -> String.equal r.component component) t.rows

let warnings t =
  List.filter_map
    (fun r -> Option.map (fun w -> (r.component, w)) r.warning)
    t.rows

let header =
  [
    "Component";
    "FIT";
    "Safety_Related";
    "Failure_Mode";
    "Distribution";
    "Safety_Mechanism";
    "SM_Coverage";
    "Single_Point_Failure_Rate";
  ]

let to_csv ?(repeat_component_cells = false) t =
  let row_cells prev r =
    let first_of_component = repeat_component_cells || prev <> Some r.component in
    [
      (if first_of_component then r.component else "");
      (if first_of_component then Printf.sprintf "%g" r.component_fit else "");
      (if r.safety_related then "Yes" else "No");
      r.failure_mode;
      Printf.sprintf "%g%%" r.distribution_pct;
      Option.value ~default:"No SM" r.safety_mechanism;
      (match r.sm_coverage_pct with
      | Some c -> Printf.sprintf "%g%%" c
      | None -> "");
      (if r.safety_related then Printf.sprintf "%g FIT" r.single_point_fit
       else "");
    ]
  in
  let _, rows =
    List.fold_left
      (fun (prev, acc) r -> (Some r.component, row_cells prev r :: acc))
      (None, []) t.rows
  in
  header :: List.rev rows

let pp ppf t =
  let csv = to_csv t in
  let widths =
    List.fold_left
      (fun ws row ->
        List.mapi
          (fun i cell ->
            let prev = List.nth_opt ws i |> Option.value ~default:0 in
            Int.max prev (String.length cell))
          row)
      (List.map (fun _ -> 0) header)
      csv
  in
  let pad s w = s ^ String.make (w - String.length s) ' ' in
  Format.fprintf ppf "@[<v>FMEDA: %s@," t.system_name;
  List.iteri
    (fun i row ->
      Format.fprintf ppf "| %s |@,"
        (String.concat " | " (List.map2 pad row widths));
      if i = 0 then
        Format.fprintf ppf "|%s|@,"
          (String.concat "+"
             (List.map (fun w -> String.make (w + 2) '-') widths)))
    csv;
  let ws = warnings t in
  if ws <> [] then begin
    Format.fprintf ppf "warnings:@,";
    List.iter (fun (c, w) -> Format.fprintf ppf "  %s: %s@," c w) ws
  end;
  Format.fprintf ppf "@]"

let merge_sensitivity ~golden ~other =
  let key r = (String.lowercase_ascii r.component, String.lowercase_ascii r.failure_mode) in
  let other_map =
    List.map (fun r -> (key r, (r.safety_related, r.impact))) other.rows
  in
  let total = ref 0 and diff = ref 0 in
  List.iter
    (fun r ->
      incr total;
      match List.assoc_opt (key r) other_map with
      | Some (sr, impact) ->
          (* A row disagrees when either the safety-related verdict or the
             judged effect differs — FMEA results comprise both, and the
             paper attributes the observed differences to differing
             "opinions on the effects of failing components". *)
          if sr <> r.safety_related || not (String.equal impact r.impact) then
            incr diff
      | None -> incr diff)
    golden.rows;
  (* Rows only in [other] also count. *)
  let golden_keys = List.map key golden.rows in
  List.iter
    (fun r ->
      if not (List.mem (key r) golden_keys) then begin
        incr total;
        incr diff
      end)
    other.rows;
  if !total = 0 then 0.0 else 100.0 *. float_of_int !diff /. float_of_int !total
