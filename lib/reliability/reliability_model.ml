type failure_mode = {
  fm_name : string;
  distribution_pct : float;
  fault : Circuit.Fault.t option;
  loss_of_function : bool;
}
[@@deriving eq, show]

type entry = {
  component_type : string;
  fit : Fit.t;
  failure_modes : failure_mode list;
}
[@@deriving eq, show]

(* Each entry under its canonical component type ([canon]), computed once
   when it is added; newest first, so [find] takes the newest. *)
type t = (string * entry) list

exception Format_error of string

let empty = []

let canon = Circuit.Library.canonical

let add t entry =
  let key = canon entry.component_type in
  (key, entry) :: List.filter (fun (k, _) -> not (String.equal k key)) t

let of_entries entries = List.fold_left add empty entries

let find t name =
  let key = canon name in
  List.find_map (fun (k, e) -> if String.equal k key then Some e else None) t

let entries t = List.rev_map snd t

let loss_like name fault =
  match fault with
  | Some Circuit.Fault.Open_circuit -> true
  | Some _ -> false
  | None -> Option.is_some (Circuit.Fault.of_failure_mode_name name)

let mode ?fault ?loss name pct =
  let fault =
    match fault with
    | Some f -> Some f
    | None -> Circuit.Fault.of_failure_mode_name name
  in
  let loss_of_function =
    match loss with Some l -> l | None -> loss_like name fault
  in
  { fm_name = name; distribution_pct = pct; fault; loss_of_function }

let table_ii =
  of_entries
    [
      {
        component_type = "diode";
        fit = Fit.of_float 10.0;
        failure_modes = [ mode "Open" 30.0; mode "Short" 70.0 ];
      };
      {
        component_type = "capacitor";
        fit = Fit.of_float 2.0;
        failure_modes = [ mode "Open" 30.0; mode "Short" 70.0 ];
      };
      {
        component_type = "inductor";
        fit = Fit.of_float 15.0;
        failure_modes = [ mode "Open" 30.0; mode "Short" 70.0 ];
      };
      {
        component_type = "microcontroller";
        fit = Fit.of_float 300.0;
        failure_modes = [ mode "RAM Failure" 100.0 ];
      };
    ]

let of_spreadsheet workbook =
  let sheet = Modelio.Spreadsheet.first_sheet workbook in
  let require_number what raw =
    match Modelio.Spreadsheet.number raw with
    | Some f when Float.is_finite f -> f
    | Some _ ->
        raise (Format_error (Printf.sprintf "%s: not a finite number: %S" what raw))
    | None -> raise (Format_error (Printf.sprintf "%s: not a number: %S" what raw))
  in
  let tbl = sheet.Modelio.Spreadsheet.table in
  let get row name = Modelio.Csv.field tbl row name in
  let missing name =
    raise (Format_error (Printf.sprintf "missing column %S" name))
  in
  List.iter
    (fun c ->
      if Option.is_none (Modelio.Csv.column_index tbl c) then missing c)
    [ "Component"; "FIT"; "Failure_Mode"; "Distribution" ];
  (* Continuation rows leave Component/FIT blank (paper Table II layout). *)
  let finished, current =
    List.fold_left
      (fun (done_, current) row ->
        let comp = Option.value ~default:"" (get row "Component") in
        let fit_raw = Option.value ~default:"" (get row "FIT") in
        let fm_name = Option.value ~default:"" (get row "Failure_Mode") in
        let dist_raw = Option.value ~default:"" (get row "Distribution") in
        if String.trim fm_name = "" then
          raise (Format_error "row without a failure mode");
        let fm = mode fm_name (require_number "Distribution" dist_raw) in
        if String.trim comp = "" then
          match current with
          | None -> raise (Format_error "continuation row before any component")
          | Some entry ->
              (done_, Some { entry with failure_modes = entry.failure_modes @ [ fm ] })
        else
          let entry =
            {
              component_type = comp;
              fit = Fit.of_float (require_number "FIT" fit_raw);
              failure_modes = [ fm ];
            }
          in
          let done_ =
            match current with Some e -> e :: done_ | None -> done_
          in
          (done_, Some entry))
      ([], None) tbl.Modelio.Csv.rows
  in
  let all =
    match current with Some e -> List.rev (e :: finished) | None -> List.rev finished
  in
  of_entries all

let of_json json =
  let open Modelio in
  let components =
    match Json.member "components" json with
    | Some (Json.List items) -> items
    | Some _ | None -> raise (Format_error "expected a 'components' array")
  in
  let str what v =
    match Json.to_str v with
    | Some s -> s
    | None -> raise (Format_error (Printf.sprintf "%s: expected a string" what))
  in
  let num what v =
    match Json.to_float v with
    | Some f when Float.is_finite f -> f
    | Some _ | None ->
        raise (Format_error (Printf.sprintf "%s: expected a finite number" what))
  in
  let parse_fm v =
    let name =
      match Json.member "name" v with
      | Some s -> str "failure mode name" s
      | None -> raise (Format_error "failure mode without a name")
    in
    let dist =
      match Json.member "distribution" v with
      | Some d -> num "distribution" d
      | None -> raise (Format_error "failure mode without a distribution")
    in
    let loss = Option.bind (Json.member "loss_of_function" v) Json.to_bool in
    mode ?loss name dist
  in
  let parse_component v =
    let ctype =
      match Json.member "type" v with
      | Some s -> str "component type" s
      | None -> raise (Format_error "component without a type")
    in
    let fit =
      match Json.member "fit" v with
      | Some f -> num "fit" f
      | None -> raise (Format_error "component without a FIT")
    in
    let fms =
      match Json.member "failure_modes" v with
      | Some (Json.List items) -> List.map parse_fm items
      | Some _ | None -> []
    in
    { component_type = ctype; fit = Fit.of_float fit; failure_modes = fms }
  in
  of_entries (List.map parse_component components)

let to_spreadsheet t =
  let rows =
    List.concat_map
      (fun e ->
        List.mapi
          (fun i fm ->
            [
              (if i = 0 then e.component_type else "");
              (if i = 0 then Modelio.Float_text.to_string e.fit else "");
              fm.fm_name;
              Modelio.Float_text.to_string fm.distribution_pct ^ "%";
            ])
          e.failure_modes)
      (entries t)
  in
  Modelio.Spreadsheet.of_csv ~name:"reliability"
    ([ "Component"; "FIT"; "Failure_Mode"; "Distribution" ] :: rows)
