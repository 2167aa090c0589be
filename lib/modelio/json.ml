type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Object of (string * t) list
[@@deriving eq, show]

exception Parse_error of { pos : int; message : string }

let fail pos message = raise (Parse_error { pos; message })

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | Some _ | None -> ()

let expect st c =
  match peek st with
  | Some x when x = c -> advance st
  | Some x -> fail st.pos (Printf.sprintf "expected '%c', found '%c'" c x)
  | None -> fail st.pos (Printf.sprintf "expected '%c', found end of input" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st.pos (Printf.sprintf "invalid literal, expected %s" word)

(* Encode a Unicode code point as UTF-8 into the buffer. *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let hex4 st =
  let h = ref 0 in
  for _ = 1 to 4 do
    (match peek st with
    | Some c ->
        let v =
          match c with
          | '0' .. '9' -> Char.code c - Char.code '0'
          | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
          | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
          | _ -> fail st.pos "invalid \\u escape"
        in
        h := (!h * 16) + v
    | None -> fail st.pos "truncated \\u escape");
    advance st
  done;
  !h

(* Plain bytes run up to the next quote or backslash: each run is copied
   with one [String.sub] (a string without escapes) or one
   [Buffer.add_substring], not byte by byte. *)
let rec plain_run src pos =
  if pos < String.length src then
    match String.unsafe_get src pos with
    | '"' | '\\' -> pos
    | _ -> plain_run src (pos + 1)
  else pos

let parse_escape st buf =
  advance st;
  match peek st with
  | Some '"' -> Buffer.add_char buf '"'; advance st
  | Some '\\' -> Buffer.add_char buf '\\'; advance st
  | Some '/' -> Buffer.add_char buf '/'; advance st
  | Some 'b' -> Buffer.add_char buf '\b'; advance st
  | Some 'f' -> Buffer.add_char buf '\012'; advance st
  | Some 'n' -> Buffer.add_char buf '\n'; advance st
  | Some 'r' -> Buffer.add_char buf '\r'; advance st
  | Some 't' -> Buffer.add_char buf '\t'; advance st
  | Some 'u' ->
      advance st;
      let cp = hex4 st in
      (* Surrogate pair handling. *)
      if cp >= 0xD800 && cp <= 0xDBFF then begin
        expect st '\\';
        expect st 'u';
        let lo = hex4 st in
        if lo < 0xDC00 || lo > 0xDFFF then fail st.pos "invalid low surrogate";
        add_utf8 buf (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
      end
      else add_utf8 buf cp
  | Some c -> fail st.pos (Printf.sprintf "invalid escape '\\%c'" c)
  | None -> fail st.pos "truncated escape"

let parse_string_body st =
  let src = st.src in
  let start = st.pos in
  let stop = plain_run src start in
  if stop < String.length src && src.[stop] = '"' then begin
    st.pos <- stop + 1;
    String.sub src start (stop - start)
  end
  else begin
    let buf = Buffer.create (stop - start + 16) in
    Buffer.add_substring buf src start (stop - start);
    st.pos <- stop;
    let rec go () =
      match peek st with
      | None -> fail st.pos "unterminated string"
      | Some '"' ->
          advance st;
          Buffer.contents buf
      | Some _ ->
          parse_escape st buf;
          let from = st.pos in
          let stop = plain_run src from in
          Buffer.add_substring buf src from (stop - from);
          st.pos <- stop;
          go ()
    in
    go ()
  end

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while match peek st with Some c -> is_num_char c | None -> false do
    advance st
  done;
  let text = String.sub st.src start (st.pos - start) in
  match float_of_string_opt text with
  | Some f -> Number f
  | None -> fail start (Printf.sprintf "invalid number %S" text)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st.pos "unexpected end of input"
  | Some '{' -> parse_object st
  | Some '[' -> parse_array st
  | Some '"' ->
      advance st;
      String (parse_string_body st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st.pos (Printf.sprintf "unexpected character '%c'" c)

and parse_object st =
  expect st '{';
  skip_ws st;
  if peek st = Some '}' then begin
    advance st;
    Object []
  end
  else begin
    let fields = ref [] in
    let rec member () =
      skip_ws st;
      expect st '"';
      let key = parse_string_body st in
      skip_ws st;
      expect st ':';
      let v = parse_value st in
      fields := (key, v) :: !fields;
      skip_ws st;
      match peek st with
      | Some ',' ->
          advance st;
          member ()
      | Some '}' -> advance st
      | Some c -> fail st.pos (Printf.sprintf "expected ',' or '}', found '%c'" c)
      | None -> fail st.pos "unterminated object"
    in
    member ();
    Object (List.rev !fields)
  end

and parse_array st =
  expect st '[';
  skip_ws st;
  if peek st = Some ']' then begin
    advance st;
    List []
  end
  else begin
    let items = ref [] in
    let rec item () =
      let v = parse_value st in
      items := v :: !items;
      skip_ws st;
      match peek st with
      | Some ',' ->
          advance st;
          item ()
      | Some ']' -> advance st
      | Some c -> fail st.pos (Printf.sprintf "expected ',' or ']', found '%c'" c)
      | None -> fail st.pos "unterminated array"
    in
    item ();
    List (List.rev !items)
  end

let parse s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail st.pos "trailing garbage";
  v

let parse_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))

(* Bytes written as they are: everything but the quote, the backslash
   and the control bytes. *)
let plain_byte c = c <> '"' && c <> '\\' && Char.code c >= 0x20

(* Writes [s] quoted, one [Buffer.add_substring] per run of plain bytes. *)
let add_escaped buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let rec go run i =
    if i = n then Buffer.add_substring buf s run (i - run)
    else
      let c = String.unsafe_get s i in
      if plain_byte c then go run (i + 1)
      else begin
        Buffer.add_substring buf s run (i - run);
        (match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c)));
        go (i + 1) (i + 1)
      end
  in
  go 0 0;
  Buffer.add_char buf '"'

(* Whole numbers below 1e15 in magnitude print as integers ("%.0f"
   would print the same digits, and "-0" for -0.0); the rest with 17
   significant digits. *)
let add_number buf f =
  if Float.is_integer f && Float.abs f < 1e15 then
    if f = 0.0 && Float.sign_bit f then Buffer.add_string buf "-0"
    else Buffer.add_string buf (string_of_int (int_of_float f))
  else Buffer.add_string buf (Printf.sprintf "%.17g" f)

let to_string ?(indent = 0) t =
  let buf = Buffer.create 256 in
  let pad depth =
    if indent > 0 then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (depth * indent) ' ')
    end
  in
  let rec emit depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Number f -> add_number buf f
    | String s -> add_escaped buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char buf ',';
            pad (depth + 1);
            emit (depth + 1) v)
          items;
        pad depth;
        Buffer.add_char buf ']'
    | Object [] -> Buffer.add_string buf "{}"
    | Object fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            pad (depth + 1);
            add_escaped buf k;
            Buffer.add_char buf ':';
            if indent > 0 then Buffer.add_char buf ' ';
            emit (depth + 1) v)
          fields;
        pad depth;
        Buffer.add_char buf '}'
  in
  emit 0 t;
  Buffer.contents buf

let write_file ?indent path t =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (to_string ?indent t);
      output_char oc '\n')

let member key = function
  | Object fields -> List.assoc_opt key fields
  | Null | Bool _ | Number _ | String _ | List _ -> None

let path keys t =
  List.fold_left
    (fun acc key -> Option.bind acc (member key))
    (Some t) keys

let to_float = function
  | Number f -> Some f
  | String s -> float_of_string_opt s
  | Null | Bool _ | List _ | Object _ -> None

let to_str = function
  | String s -> Some s
  | Null | Bool _ | Number _ | List _ | Object _ -> None

let to_list = function
  | List items -> Some items
  | Null | Bool _ | Number _ | String _ | Object _ -> None

let to_bool = function
  | Bool b -> Some b
  | Null | Number _ | String _ | List _ | Object _ -> None
