(* Tests for the heterogeneous model-access layer: CSV, JSON, XML,
   spreadsheets, model values and the driver registry. *)

open Modelio

(* ---------- CSV ---------- *)

let test_csv_simple () =
  let t = Csv.parse "a,b,c\n1,2,3\n" in
  Alcotest.(check (list (list string))) "rows"
    [ [ "a"; "b"; "c" ]; [ "1"; "2"; "3" ] ]
    t

let test_csv_quoted () =
  let t = Csv.parse "\"x,y\",\"he said \"\"hi\"\"\",\"multi\nline\"\n" in
  Alcotest.(check (list (list string))) "quoted"
    [ [ "x,y"; "he said \"hi\""; "multi\nline" ] ]
    t

let test_csv_crlf () =
  let t = Csv.parse "a,b\r\n1,2\r\n" in
  Alcotest.(check (list (list string))) "crlf" [ [ "a"; "b" ]; [ "1"; "2" ] ] t

let test_csv_no_trailing_newline () =
  let t = Csv.parse "a,b\n1,2" in
  Alcotest.(check (list (list string))) "no trailing" [ [ "a"; "b" ]; [ "1"; "2" ] ] t

let test_csv_empty_fields () =
  let t = Csv.parse ",,\n" in
  Alcotest.(check (list (list string))) "empties" [ [ ""; ""; "" ] ] t

let test_csv_unterminated_quote () =
  match Csv.parse "\"oops\n" with
  | exception Csv.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected Parse_error"

let test_csv_quote_at_eof () =
  (* An escaped quote as the very last character — the quoted-field
     scanner must not read past the end looking for the closer. *)
  let t = Csv.parse "a,\"he said \"\"hi\"\"\"" in
  Alcotest.(check (list (list string))) "escaped quote at EOF"
    [ [ "a"; "he said \"hi\"" ] ]
    t;
  let t = Csv.parse "\"\"\"\"" in
  Alcotest.(check (list (list string))) "lone escaped quote" [ [ "\"" ] ] t;
  match Csv.parse "a,\"b\"\"" with
  | exception Csv.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected Parse_error for unterminated escaped quote"

let test_csv_crlf_in_quotes () =
  (* CRLF inside a quoted field is data, CRLF outside is a row break;
     a file mixing both parses to the same rows as its LF twin. *)
  let t = Csv.parse "a,\"line1\r\nline2\"\r\nc,d" in
  Alcotest.(check (list (list string))) "crlf kept inside quotes"
    [ [ "a"; "line1\r\nline2" ]; [ "c"; "d" ] ]
    t;
  Alcotest.(check (list (list string))) "mixed endings agree"
    (Csv.parse "a,b\n1,2\n")
    (Csv.parse "a,b\r\n1,2")

let test_csv_trailing_newlines () =
  (* One final newline terminates the last row; it does not open an
     empty one.  A blank line in the middle is a real (empty) row. *)
  Alcotest.(check (list (list string))) "single trailing" [ [ "a"; "b" ] ]
    (Csv.parse "a,b\n");
  Alcotest.(check (list (list string))) "crlf trailing" [ [ "a"; "b" ] ]
    (Csv.parse "a,b\r\n");
  Alcotest.(check (list (list string))) "blank interior row"
    [ [ "a" ]; [ "" ]; [ "b" ] ]
    (Csv.parse "a\n\nb\n");
  Alcotest.(check (list (list string))) "quoted field ends the file"
    [ [ "a"; "b" ] ]
    (Csv.parse "a,\"b\"")

let test_csv_roundtrip () =
  let rows = [ [ "a,b"; "plain" ]; [ "\"q\""; "line\nbreak" ]; [ ""; "x" ] ] in
  Alcotest.(check (list (list string))) "roundtrip" rows
    (Csv.parse (Csv.to_string rows))

let csv_field_gen =
  QCheck.Gen.(
    string_size ~gen:(oneof [ char_range 'a' 'z'; oneofl [ ','; '"'; '\n'; ' ' ] ])
      (int_range 0 12))

let prop_csv_roundtrip =
  QCheck.Test.make ~name:"csv print/parse roundtrip" ~count:200
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 6) (list_size (int_range 1 5) csv_field_gen)))
    (fun rows -> Csv.parse (Csv.to_string rows) = rows)

let test_csv_table () =
  let t = Csv.to_table (Csv.parse "Name,FIT\nD1,10\nL1,15\n") in
  Alcotest.(check (option int)) "column_index" (Some 1) (Csv.column_index t "fit");
  Alcotest.(check (option string)) "field" (Some "15")
    (Csv.field t [ "L1"; "15" ] "FIT");
  Alcotest.(check (option string)) "missing column" None
    (Csv.field t [ "L1"; "15" ] "Nope")

(* ---------- JSON ---------- *)

let test_json_parse () =
  let j = Json.parse {| {"a": [1, 2.5, true, null], "b": "x\ny"} |} in
  Alcotest.(check bool) "structure" true
    (Json.equal j
       (Json.Object
          [
            ("a", Json.List [ Json.Number 1.0; Json.Number 2.5; Json.Bool true; Json.Null ]);
            ("b", Json.String "x\ny");
          ]))

let test_json_unicode () =
  let j = Json.parse {| "é€" |} in
  Alcotest.(check string) "utf8" "\xc3\xa9\xe2\x82\xac"
    (Option.get (Json.to_str j))

let test_json_surrogate_pair () =
  let j = Json.parse {| "😀" |} in
  Alcotest.(check string) "emoji" "\xf0\x9f\x98\x80" (Option.get (Json.to_str j))

let test_json_errors () =
  let bad = [ "{"; "[1,"; "tru"; "\"unterminated"; "{\"a\" 1}"; "1 2" ] in
  List.iter
    (fun s ->
      match Json.parse s with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "expected error on %S" s))
    bad;
  (* Where an unterminated string or a bad escape is reported. *)
  List.iter
    (fun (text, pos, message) ->
      match Json.parse text with
      | exception Json.Parse_error e ->
          Alcotest.(check (pair int string)) (Printf.sprintf "%S" text)
            (pos, message) (e.pos, e.message)
      | _ -> Alcotest.fail (Printf.sprintf "expected an error on %S" text))
    [
      ({|"abc|}, 4, "unterminated string");
      ({|"|}, 1, "unterminated string");
      ({|["a\nb|}, 6, "unterminated string");
      ({|{"key|}, 5, "unterminated string");
      ({|"ab\|}, 4, "truncated escape");
      ({|"\u12|}, 5, "truncated \\u escape");
      ({|"a\u12x4"|}, 6, "invalid \\u escape");
      ({|"a\q"|}, 3, "invalid escape '\\q'");
      ({|"\ud800"|}, 7, "expected '\\', found '\"'");
      ({|"\ud800\u0041"|}, 13, "invalid low surrogate");
    ]

let test_json_accessors () =
  let j = Json.parse {| {"a": {"b": [10, 20]}} |} in
  Alcotest.(check (option (float 1e-9))) "path" (Some 10.0)
    (Option.bind (Json.path [ "a"; "b" ] j) (fun l ->
         Option.bind (Json.to_list l) (fun items ->
             Option.bind (List.nth_opt items 0) Json.to_float)));
  Alcotest.(check (option (float 1e-9))) "numeric string" (Some 4.5)
    (Json.to_float (Json.String "4.5"))

(* The encoder held byte for byte to the straightforward one
   (Oracle.Json_encoder) on strings over all 256 byte values and on the
   numbers where integer printing and "%.17g" meet. *)
let any_bytes =
  QCheck.Gen.(
    string_size
      ~gen:
        (frequency
           [
             (3, char);
             (1, oneofl [ '"'; '\\'; '/'; '\n'; '\r'; '\t'; '\000'; '\x1f'; '\x7f'; '\x80'; '\xc3'; '\xff' ]);
           ])
      (int_range 0 12))

let edge_numbers =
  [
    0.0; -0.0; 1.0; -1.0; 0.1; 1e15 -. 1.0; -.(1e15 -. 1.0); 1e15; -1e15;
    2.0 ** 53.0; -.(2.0 ** 53.0); (2.0 ** 53.0) +. 2.0; 5e-324; -5e-324;
    2.2250738585072009e-308; Float.min_float; Float.max_float;
    123456789012345.6; 4503599627370495.5;
  ]

let any_number =
  QCheck.Gen.(
    frequency
      [
        (3, oneofl edge_numbers);
        (2, map float_of_int int);
        (2, map Int64.float_of_bits ui64);
        (1, oneofl [ Float.nan; Float.infinity; Float.neg_infinity ]);
      ])

let finite_number =
  QCheck.Gen.map (fun f -> if Float.is_finite f then f else 0.5) any_number

let rec json_any number depth =
  QCheck.Gen.(
    let leaf =
      oneof
        [
          return Json.Null;
          map (fun b -> Json.Bool b) bool;
          map (fun f -> Json.Number f) number;
          map (fun s -> Json.String s) any_bytes;
        ]
    in
    if depth = 0 then leaf
    else
      frequency
        [
          (2, leaf);
          ( 1,
            map (fun l -> Json.List l)
              (list_size (int_range 0 4) (json_any number (depth - 1))) );
          ( 1,
            map (fun kvs -> Json.Object kvs)
              (list_size (int_range 0 4)
                 (pair any_bytes (json_any number (depth - 1)))) );
        ])

let prop_json_encoder_oracle =
  QCheck.Test.make ~name:"json to_string = reference encoder, byte for byte"
    ~count:500
    (QCheck.make ~print:Json.show (json_any any_number 3))
    (fun j ->
      String.equal (Json.to_string j) (Oracle.Json_encoder.to_string j)
      && String.equal
           (Json.to_string ~indent:2 j)
           (Oracle.Json_encoder.to_string ~indent:2 j))

(* Parsing what the encoder wrote gives the value back — any bytes in
   strings and keys, every finite number bit for bit (so -0.0 stays
   -0.0). *)
let rec bit_equal a b =
  match (a, b) with
  | Json.Number x, Json.Number y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.List xs, Json.List ys -> List.equal bit_equal xs ys
  | Json.Object xs, Json.Object ys ->
      List.equal
        (fun (k, x) (l, y) -> String.equal k l && bit_equal x y)
        xs ys
  | _ -> Json.equal a b

let prop_json_roundtrip =
  QCheck.Test.make ~name:"json print/parse roundtrip" ~count:500
    (QCheck.make ~print:Json.show (json_any finite_number 3))
    (fun j ->
      bit_equal j (Json.parse (Json.to_string j))
      && bit_equal j (Json.parse (Json.to_string ~indent:2 j)))

(* ---------- XML ---------- *)

let test_xml_parse () =
  let e =
    Xml.parse
      "<?xml version=\"1.0\"?><root a=\"1\"><child>text &amp; more</child>\
       <child b='2'/><!-- comment --></root>"
  in
  Alcotest.(check string) "tag" "root" e.Xml.tag;
  Alcotest.(check (option string)) "attr" (Some "1") (Xml.attribute e "a");
  Alcotest.(check int) "children" 2 (List.length (Xml.find_children e "child"));
  Alcotest.(check string) "text" "text & more"
    (Xml.text_content (Option.get (Xml.find_first e "child")))

let test_xml_cdata () =
  let e = Xml.parse "<a><![CDATA[<raw> & stuff]]></a>" in
  Alcotest.(check string) "cdata" "<raw> & stuff" (Xml.text_content e)

let test_xml_entities () =
  let e = Xml.parse "<a>&lt;&gt;&quot;&apos;&#65;&#x42;</a>" in
  Alcotest.(check string) "entities" "<>\"'AB" (Xml.text_content e)

let test_xml_mismatched () =
  match Xml.parse "<a><b></a></b>" with
  | exception Xml.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected Parse_error"

let test_xml_roundtrip () =
  let e =
    Xml.parse "<m x=\"a&amp;b\"><k>v1</k><k attr=\"q\">v&lt;2</k><empty/></m>"
  in
  let reparsed = Xml.parse (Xml.to_string e) in
  Alcotest.(check bool) "roundtrip" true (Xml.equal_element e reparsed)

let test_xml_descendants () =
  let e = Xml.parse "<a><b><c/></b><c/><d><c/></d></a>" in
  Alcotest.(check int) "descendants" 3 (List.length (Xml.descendants e "c"))

(* ---------- Spreadsheet ---------- *)

let test_spreadsheet_numbers () =
  Alcotest.(check (option (float 1e-9))) "plain" (Some 42.0) (Spreadsheet.number "42");
  Alcotest.(check (option (float 1e-9))) "pct" (Some 30.0) (Spreadsheet.number "30%");
  Alcotest.(check (option (float 1e-9))) "spaces" (Some 10.0) (Spreadsheet.number " 10 ");
  Alcotest.(check (option (float 1e-9))) "sci" (Some 450.0) (Spreadsheet.number "4.5e2");
  Alcotest.(check (option (float 1e-9))) "junk" None (Spreadsheet.number "n/a")

let test_spreadsheet_load_save () =
  let dir = Filename.temp_file "wb" "" in
  Sys.remove dir;
  let wb =
    Spreadsheet.of_csv ~name:"data"
      [ [ "Component"; "FIT" ]; [ "D1"; "10" ]; [ "L1"; "15" ] ]
  in
  Spreadsheet.save dir wb;
  let reloaded = Spreadsheet.load dir in
  let sheet = Spreadsheet.first_sheet reloaded in
  Alcotest.(check string) "sheet name" "data" sheet.Spreadsheet.sheet_name;
  Alcotest.(check (option string)) "cell" (Some "15")
    (Spreadsheet.cell sheet ~row:1 ~column:"FIT");
  Sys.remove (Filename.concat dir "data.csv");
  Sys.rmdir dir

(* ---------- Mvalue ---------- *)

let test_mvalue_field_canon () =
  let r = Mvalue.Record [ ("Failure_Mode", Mvalue.Str "Open") ] in
  Alcotest.(check bool) "case-insensitive" true
    (Mvalue.field r "failure_mode" = Some (Mvalue.Str "Open"));
  Alcotest.(check bool) "space = underscore" true
    (Mvalue.field r "Failure Mode" = Some (Mvalue.Str "Open"))

let test_mvalue_truthy () =
  Alcotest.(check bool) "null" false (Mvalue.truthy Mvalue.Null);
  Alcotest.(check bool) "zero" false (Mvalue.truthy (Mvalue.Num 0.0));
  Alcotest.(check bool) "empty str" false (Mvalue.truthy (Mvalue.Str ""));
  Alcotest.(check bool) "empty seq" false (Mvalue.truthy (Mvalue.Seq []));
  Alcotest.(check bool) "record" true (Mvalue.truthy (Mvalue.Record []))

let test_mvalue_of_csv () =
  let t = Csv.to_table (Csv.parse "A,B\n1,2\nshort_row\n") in
  let v = Mvalue.of_csv_table t in
  match Mvalue.field v "rows" with
  | Some (Mvalue.Seq [ _; Mvalue.Record fields ]) ->
      Alcotest.(check bool) "missing cell -> Null" true
        (List.assoc "B" fields = Mvalue.Null)
  | _ -> Alcotest.fail "unexpected shape"

let test_mvalue_json_roundtrip () =
  let j = Json.parse {| {"a": [1, "x", false], "b": null} |} in
  Alcotest.(check bool) "json <-> mvalue" true
    (Json.equal j (Mvalue.to_json (Mvalue.of_json j)))

(* ---------- Driver ---------- *)

let test_driver_registry () =
  Alcotest.(check bool) "csv registered" true (Option.is_some (Driver.find "csv"));
  Alcotest.(check bool) "case-insensitive" true (Option.is_some (Driver.find "CSV"));
  Alcotest.(check bool) "excel alias" true (Option.is_some (Driver.find "excel"));
  match Driver.resolve ~model_type:"nope" ~location:"x" ~metadata:[] with
  | exception Driver.Unknown_driver "nope" -> ()
  | _ -> Alcotest.fail "expected Unknown_driver"

let test_driver_load_error () =
  match Driver.resolve ~model_type:"json" ~location:"/nonexistent.json" ~metadata:[] with
  | exception Driver.Load_error { driver = "json"; _ } -> ()
  | _ -> Alcotest.fail "expected Load_error"

let test_driver_csv_end_to_end () =
  let path = Filename.temp_file "drv" ".csv" in
  Csv.write_file path [ [ "K"; "V" ]; [ "a"; "1" ] ];
  let v = Driver.resolve ~model_type:"csv" ~location:path ~metadata:[] in
  Sys.remove path;
  match Mvalue.field v "rows" with
  | Some (Mvalue.Seq [ row ]) ->
      Alcotest.(check bool) "row field" true
        (Mvalue.field row "K" = Some (Mvalue.Str "a"))
  | _ -> Alcotest.fail "unexpected shape"

let suite =
  [
    Alcotest.test_case "csv simple" `Quick test_csv_simple;
    Alcotest.test_case "csv quoted" `Quick test_csv_quoted;
    Alcotest.test_case "csv crlf" `Quick test_csv_crlf;
    Alcotest.test_case "csv no trailing newline" `Quick test_csv_no_trailing_newline;
    Alcotest.test_case "csv empty fields" `Quick test_csv_empty_fields;
    Alcotest.test_case "csv unterminated quote" `Quick test_csv_unterminated_quote;
    Alcotest.test_case "csv quote at eof" `Quick test_csv_quote_at_eof;
    Alcotest.test_case "csv crlf in quotes" `Quick test_csv_crlf_in_quotes;
    Alcotest.test_case "csv trailing newlines" `Quick test_csv_trailing_newlines;
    Alcotest.test_case "csv roundtrip" `Quick test_csv_roundtrip;
    QCheck_alcotest.to_alcotest prop_csv_roundtrip;
    Alcotest.test_case "csv table" `Quick test_csv_table;
    Alcotest.test_case "json parse" `Quick test_json_parse;
    Alcotest.test_case "json unicode" `Quick test_json_unicode;
    Alcotest.test_case "json surrogate pair" `Quick test_json_surrogate_pair;
    Alcotest.test_case "json errors" `Quick test_json_errors;
    Alcotest.test_case "json accessors" `Quick test_json_accessors;
    QCheck_alcotest.to_alcotest prop_json_roundtrip;
    QCheck_alcotest.to_alcotest prop_json_encoder_oracle;
    Alcotest.test_case "xml parse" `Quick test_xml_parse;
    Alcotest.test_case "xml cdata" `Quick test_xml_cdata;
    Alcotest.test_case "xml entities" `Quick test_xml_entities;
    Alcotest.test_case "xml mismatched tags" `Quick test_xml_mismatched;
    Alcotest.test_case "xml roundtrip" `Quick test_xml_roundtrip;
    Alcotest.test_case "xml descendants" `Quick test_xml_descendants;
    Alcotest.test_case "spreadsheet numbers" `Quick test_spreadsheet_numbers;
    Alcotest.test_case "spreadsheet load/save" `Quick test_spreadsheet_load_save;
    Alcotest.test_case "mvalue field canon" `Quick test_mvalue_field_canon;
    Alcotest.test_case "mvalue truthy" `Quick test_mvalue_truthy;
    Alcotest.test_case "mvalue of_csv" `Quick test_mvalue_of_csv;
    Alcotest.test_case "mvalue json roundtrip" `Quick test_mvalue_json_roundtrip;
    Alcotest.test_case "driver registry" `Quick test_driver_registry;
    Alcotest.test_case "driver load error" `Quick test_driver_load_error;
    Alcotest.test_case "driver csv end-to-end" `Quick test_driver_csv_end_to_end;
  ]
