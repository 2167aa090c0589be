type sheet = { sheet_name : string; table : Csv.table }

type t = { sheets : sheet list }

let of_csv ~name csv = { sheets = [ { sheet_name = name; table = Csv.to_table csv } ] }

let basename_no_ext path =
  let base = Filename.basename path in
  try Filename.chop_extension base with Invalid_argument _ -> base

let load path =
  if Sys.is_directory path then begin
    let files =
      Sys.readdir path |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".csv")
      |> List.sort String.compare
    in
    let sheets =
      List.map
        (fun f ->
          {
            sheet_name = basename_no_ext f;
            table = Csv.to_table (Csv.parse_file (Filename.concat path f));
          })
        files
    in
    { sheets }
  end
  else of_csv ~name:(basename_no_ext path) (Csv.parse_file path)

let save dir t =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun s ->
      let csv = s.table.Csv.header :: s.table.Csv.rows in
      Csv.write_file (Filename.concat dir (s.sheet_name ^ ".csv")) csv)
    t.sheets

let sheet t name =
  let lname = String.lowercase_ascii name in
  List.find_opt
    (fun s -> String.equal (String.lowercase_ascii s.sheet_name) lname)
    t.sheets

let first_sheet t =
  match t.sheets with
  | s :: _ -> s
  | [] -> invalid_arg "Spreadsheet.first_sheet: empty workbook"

let cell s ~row ~column =
  match List.nth_opt s.table.Csv.rows row with
  | None -> None
  | Some r -> Csv.field s.table r column

let number raw =
  let s = String.trim raw in
  if s = "" then None
  else
    let s, _had_pct =
      if String.length s > 0 && s.[String.length s - 1] = '%' then
        (String.trim (String.sub s 0 (String.length s - 1)), true)
      else (s, false)
    in
    float_of_string_opt s
