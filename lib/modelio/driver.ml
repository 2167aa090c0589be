type t = {
  driver_name : string;
  load : location:string -> metadata:(string * string) list -> Mvalue.t;
}

exception Load_error of { driver : string; location : string; message : string }

exception Unknown_driver of string

let registry : (string, t) Hashtbl.t = Hashtbl.create 7

let canon = String.lowercase_ascii

let register d = Hashtbl.replace registry (canon d.driver_name) d

let find name = Hashtbl.find_opt registry (canon name)

let resolve ~model_type ~location ~metadata =
  match find model_type with
  | None -> raise (Unknown_driver model_type)
  | Some d -> d.load ~location ~metadata

let wrap driver location f =
  try f () with
  | Load_error _ as e -> raise e
  | Sys_error message | Failure message ->
      raise (Load_error { driver; location; message })
  | Csv.Parse_error { line; message } ->
      raise
        (Load_error
           {
             driver;
             location;
             message = Printf.sprintf "line %d: %s" line message;
           })
  | Json.Parse_error { pos; message } | Xml.Parse_error { pos; message } ->
      raise
        (Load_error
           {
             driver;
             location;
             message = Printf.sprintf "offset %d: %s" pos message;
           })

let csv_driver =
  {
    driver_name = "csv";
    load =
      (fun ~location ~metadata:_ ->
        wrap "csv" location (fun () ->
            Mvalue.of_csv_table (Csv.to_table (Csv.parse_file location))));
  }

let json_driver =
  {
    driver_name = "json";
    load =
      (fun ~location ~metadata:_ ->
        wrap "json" location (fun () -> Mvalue.of_json (Json.parse_file location)));
  }

let xml_driver =
  {
    driver_name = "xml";
    load =
      (fun ~location ~metadata:_ ->
        wrap "xml" location (fun () -> Mvalue.of_xml (Xml.parse_file location)));
  }

let spreadsheet_driver =
  {
    driver_name = "spreadsheet";
    load =
      (fun ~location ~metadata:_ ->
        wrap "spreadsheet" location (fun () ->
            let wb = Spreadsheet.load location in
            Mvalue.Record
              (List.map
                 (fun (s : Spreadsheet.sheet) ->
                   (s.Spreadsheet.sheet_name, Mvalue.of_csv_table s.Spreadsheet.table))
                 wb.Spreadsheet.sheets)));
  }

let install_builtin () =
  register csv_driver;
  register json_driver;
  register xml_driver;
  register spreadsheet_driver;
  register { spreadsheet_driver with driver_name = "excel" }

let () = install_builtin ()
