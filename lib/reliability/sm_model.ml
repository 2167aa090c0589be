type mechanism = {
  sm_name : string;
  component_type : string;
  failure_mode : string;
  coverage_pct : float;
  cost : float;
}
[@@deriving eq, show]

type t = mechanism list

exception Format_error of string

let empty = []

let of_mechanisms ms = ms

let mechanisms t = t

let canon_type = Circuit.Library.canonical

let canon_fm name = String.lowercase_ascii (String.trim name)

let applicable t ~component_type ~failure_mode =
  let ct = canon_type component_type and fm = canon_fm failure_mode in
  List.filter
    (fun m ->
      String.equal (canon_type m.component_type) ct
      && String.equal (canon_fm m.failure_mode) fm)
    t
  |> List.sort (fun a b -> Float.compare b.coverage_pct a.coverage_pct)

let table_iii =
  [
    {
      sm_name = "ECC";
      component_type = "MCU";
      failure_mode = "RAM Failure";
      coverage_pct = 99.0;
      cost = 2.0;
    };
  ]

let extended_catalogue =
  table_iii
  @ [
      {
        sm_name = "time-out watchdog";
        component_type = "MCU";
        failure_mode = "RAM Failure";
        coverage_pct = 70.0;
        cost = 0.5;
      };
      {
        sm_name = "dual-core lockstep";
        component_type = "MCU";
        failure_mode = "RAM Failure";
        coverage_pct = 99.0;
        cost = 8.0;
      };
      {
        sm_name = "time-out watchdog";
        component_type = "PLL";
        failure_mode = "Lower frequency";
        coverage_pct = 70.0;
        cost = 0.5;
      };
      {
        sm_name = "dual-core lockstep";
        component_type = "PLL";
        failure_mode = "Jitter";
        coverage_pct = 99.0;
        cost = 8.0;
      };
      {
        sm_name = "redundant diode";
        component_type = "diode";
        failure_mode = "Open";
        coverage_pct = 90.0;
        cost = 1.0;
      };
      {
        sm_name = "current-limit monitor";
        component_type = "inductor";
        failure_mode = "Open";
        coverage_pct = 80.0;
        cost = 1.5;
      };
      {
        sm_name = "rail voltage monitor";
        component_type = "vsource";
        failure_mode = "Loss of output";
        coverage_pct = 95.0;
        cost = 1.0;
      };
      {
        sm_name = "plausibility check";
        component_type = "current_sensor";
        failure_mode = "Reading loss";
        coverage_pct = 60.0;
        cost = 0.5;
      };
      {
        sm_name = "redundant sensor";
        component_type = "current_sensor";
        failure_mode = "Reading loss";
        coverage_pct = 95.0;
        cost = 2.5;
      };
      {
        sm_name = "redundant sensor";
        component_type = "voltage_sensor";
        failure_mode = "Reading loss";
        coverage_pct = 95.0;
        cost = 2.5;
      };
      {
        sm_name = "redundant switch path";
        component_type = "switch";
        failure_mode = "Stuck open";
        coverage_pct = 90.0;
        cost = 1.5;
      };
      {
        sm_name = "load health monitor";
        component_type = "load";
        failure_mode = "Open";
        coverage_pct = 85.0;
        cost = 1.0;
      };
      {
        sm_name = "redundant inductor";
        component_type = "inductor";
        failure_mode = "Open";
        coverage_pct = 90.0;
        cost = 2.0;
      };
      {
        sm_name = "watchdog restart";
        component_type = "task";
        failure_mode = "Crash";
        coverage_pct = 90.0;
        cost = 1.0;
      };
      {
        sm_name = "heartbeat monitor";
        component_type = "task";
        failure_mode = "Hang";
        coverage_pct = 85.0;
        cost = 1.0;
      };
      {
        sm_name = "N-version execution";
        component_type = "task";
        failure_mode = "Crash";
        coverage_pct = 99.0;
        cost = 12.0;
      };
      {
        sm_name = "parallel diode";
        component_type = "diode";
        failure_mode = "Open";
        coverage_pct = 95.0;
        cost = 1.5;
      };
    ]

let of_spreadsheet workbook =
  let sheet = Modelio.Spreadsheet.first_sheet workbook in
  let tbl = sheet.Modelio.Spreadsheet.table in
  let find_col names =
    List.find_map (fun n -> Modelio.Csv.column_index tbl n) names
  in
  let comp_col = find_col [ "Component" ] in
  let fm_col = find_col [ "Failure_Mode"; "Failure Mode" ] in
  let sm_col = find_col [ "Safety_Mechanism"; "Safety Mechanism" ] in
  let cov_col = find_col [ "Cov."; "Cov"; "Coverage" ] in
  let cost_col = find_col [ "Cost(hrs)"; "Cost"; "Cost (hrs)" ] in
  let require what = function
    | Some c -> c
    | None -> raise (Format_error (Printf.sprintf "missing column %s" what))
  in
  let comp_col = require "Component" comp_col in
  let fm_col = require "Failure_Mode" fm_col in
  let sm_col = require "Safety_Mechanism" sm_col in
  let cov_col = require "Cov." cov_col in
  let cost_col = require "Cost(hrs)" cost_col in
  let cell row i = Option.value ~default:"" (List.nth_opt row i) in
  let number what raw =
    match Modelio.Spreadsheet.number raw with
    | Some f when Float.is_finite f -> f
    | Some _ ->
        raise (Format_error (Printf.sprintf "%s: not a finite number: %S" what raw))
    | None -> raise (Format_error (Printf.sprintf "%s: not a number: %S" what raw))
  in
  List.map
    (fun row ->
      {
        sm_name = cell row sm_col;
        component_type = cell row comp_col;
        failure_mode = cell row fm_col;
        coverage_pct = number "coverage" (cell row cov_col);
        cost = number "cost" (cell row cost_col);
      })
    tbl.Modelio.Csv.rows

let to_spreadsheet t =
  let rows =
    List.map
      (fun m ->
        [
          m.component_type;
          m.failure_mode;
          m.sm_name;
          Modelio.Float_text.to_string m.coverage_pct ^ "%";
          Modelio.Float_text.to_string m.cost;
        ])
      t
  in
  Modelio.Spreadsheet.of_csv ~name:"safety_mechanisms"
    ([ "Component"; "Failure_Mode"; "Safety_Mechanism"; "Cov."; "Cost(hrs)" ]
    :: rows)
