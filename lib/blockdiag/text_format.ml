exception Parse_error of { line : int; message : string }

(* ---------- lexing ---------- *)

type token =
  | T_ident of string
  | T_num of float
  | T_str of string
  | T_lbrace
  | T_rbrace
  | T_lparen
  | T_rparen
  | T_colon
  | T_semi
  | T_comma
  | T_dot
  | T_eq
  | T_arrow
  | T_eof

let token_desc = function
  | T_ident s -> Printf.sprintf "identifier %S" s
  | T_num f -> Printf.sprintf "number %g" f
  | T_str s -> Printf.sprintf "string %S" s
  | T_lbrace -> "'{'"
  | T_rbrace -> "'}'"
  | T_lparen -> "'('"
  | T_rparen -> "')'"
  | T_colon -> "':'"
  | T_semi -> "';'"
  | T_comma -> "','"
  | T_dot -> "'.'"
  | T_eq -> "'='"
  | T_arrow -> "'->'"
  | T_eof -> "end of input"

let fail line message = raise (Parse_error { line; message })

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '+' | '-' -> true
  | _ -> false

let is_digit = function '0' .. '9' -> true | _ -> false

let tokenize src =
  let n = String.length src in
  let line = ref 1 in
  let toks = ref [] in
  let emit t = toks := (t, !line) :: !toks in
  let rec go i =
    if i >= n then emit T_eof
    else
      match src.[i] with
      | '\n' ->
          incr line;
          go (i + 1)
      | ' ' | '\t' | '\r' -> go (i + 1)
      | '#' ->
          let rec skip j = if j < n && src.[j] <> '\n' then skip (j + 1) else j in
          go (skip i)
      | '{' -> emit T_lbrace; go (i + 1)
      | '}' -> emit T_rbrace; go (i + 1)
      | '(' -> emit T_lparen; go (i + 1)
      | ')' -> emit T_rparen; go (i + 1)
      | ':' -> emit T_colon; go (i + 1)
      | ';' -> emit T_semi; go (i + 1)
      | ',' -> emit T_comma; go (i + 1)
      | '.' -> emit T_dot; go (i + 1)
      | '=' -> emit T_eq; go (i + 1)
      | '-' when i + 1 < n && src.[i + 1] = '>' ->
          emit T_arrow;
          go (i + 2)
      | '"' ->
          let buf = Buffer.create 16 in
          let rec str j =
            if j >= n then fail !line "unterminated string"
            else if src.[j] = '"' then j + 1
            else if src.[j] = '\\' && j + 1 < n then begin
              Buffer.add_char buf src.[j + 1];
              str (j + 2)
            end
            else begin
              if src.[j] = '\n' then incr line;
              Buffer.add_char buf src.[j];
              str (j + 1)
            end
          in
          let next = str (i + 1) in
          emit (T_str (Buffer.contents buf));
          go next
      | c when is_digit c || (c = '-' && i + 1 < n && is_digit src.[i + 1]) ->
          let rec num j =
            if
              j < n
              && (is_digit src.[j] || src.[j] = '.' || src.[j] = 'e'
                 || src.[j] = 'E'
                 || ((src.[j] = '-' || src.[j] = '+')
                    && j > i
                    && (src.[j - 1] = 'e' || src.[j - 1] = 'E')))
            then num (j + 1)
            else j
          in
          (* past a leading sign, which [num] takes only after an exponent *)
          let next = num (if c = '-' then i + 1 else i) in
          let text = String.sub src i (next - i) in
          (match float_of_string_opt text with
          | Some f -> emit (T_num f)
          | None -> fail !line (Printf.sprintf "bad number %S" text));
          go next
      | c when is_ident_char c ->
          let rec ident j =
            if j < n && is_ident_char src.[j] then ident (j + 1) else j
          in
          let next = ident i in
          emit (T_ident (String.sub src i (next - i)));
          go next
      | c -> fail !line (Printf.sprintf "unexpected character '%c'" c)
  in
  go 0;
  List.rev !toks

(* ---------- parsing ---------- *)

type parser_state = { mutable toks : (token * int) list }

let peek st = match st.toks with (t, l) :: _ -> (t, l) | [] -> (T_eof, 0)

let advance st = match st.toks with _ :: tl -> st.toks <- tl | [] -> ()

let expect st want desc =
  let t, l = peek st in
  if t = want then advance st
  else fail l (Printf.sprintf "expected %s, found %s" desc (token_desc t))

let expect_ident st what =
  match peek st with
  | T_ident s, _ ->
      advance st;
      s
  | t, l -> fail l (Printf.sprintf "expected %s, found %s" what (token_desc t))

let parse_params st =
  (* '{' (name '=' value ';')* '}' *)
  expect st T_lbrace "'{'";
  let rec go params annotation =
    match peek st with
    | T_rbrace, _ ->
        advance st;
        (List.rev params, annotation)
    | T_ident name, _ ->
        advance st;
        expect st T_eq "'='";
        let value =
          match peek st with
          | T_num f, _ ->
              advance st;
              Diagram.P_num f
          | T_str s, _ ->
              advance st;
              Diagram.P_str s
          | T_ident "true", _ ->
              advance st;
              Diagram.P_bool true
          | T_ident "false", _ ->
              advance st;
              Diagram.P_bool false
          | T_ident s, _ ->
              advance st;
              Diagram.P_str s
          | t, l -> fail l (Printf.sprintf "expected a value, found %s" (token_desc t))
        in
        expect st T_semi "';'";
        if String.equal name "annotation" then
          let a =
            match value with
            | Diagram.P_str s -> s
            | Diagram.P_num f -> Modelio.Float_text.to_string f
            | Diagram.P_bool b -> string_of_bool b
          in
          go params (Some a)
        else go ((name, value) :: params) annotation
    | t, l -> fail l (Printf.sprintf "expected a parameter or '}', found %s" (token_desc t))
  in
  go [] None

let parse_ports st =
  (* 'ports' '(' [kind name {',' kind name}] ')' — possibly empty *)
  expect st T_lparen "'('";
  match peek st with
  | T_rparen, _ ->
      advance st;
      []
  | _ ->
  let rec go acc =
    let kind =
      match expect_ident st "a port kind" with
      | "in" -> Diagram.In_port
      | "out" -> Diagram.Out_port
      | "conserving" -> Diagram.Conserving
      | other ->
          let _, l = peek st in
          fail l (Printf.sprintf "unknown port kind %S" other)
    in
    let name = expect_ident st "a port name" in
    let acc = { Diagram.port_name = name; port_kind = kind } :: acc in
    match peek st with
    | T_comma, _ ->
        advance st;
        go acc
    | T_rparen, _ ->
        advance st;
        List.rev acc
    | t, l -> fail l (Printf.sprintf "expected ',' or ')', found %s" (token_desc t))
  in
  go []

let rec parse_body st name =
  expect st T_lbrace "'{'";
  let blocks = ref [] in
  let connections = ref [] in
  let subsystems = ref [] in
  let rec go () =
    match peek st with
    | T_rbrace, _ ->
        advance st;
        Diagram.diagram ~connections:(List.rev !connections)
          ~subsystems:(List.rev !subsystems) ~name (List.rev !blocks)
    | T_ident "block", _ ->
        advance st;
        let id = expect_ident st "a block id" in
        expect st T_colon "':'";
        let btype = expect_ident st "a block type" in
        let ports =
          match peek st with
          | T_ident "ports", _ ->
              advance st;
              parse_ports st
          | _ -> Diagram.two_terminal_ports
        in
        let parameters, annotation =
          match peek st with
          | T_lbrace, _ -> parse_params st
          | _ ->
              (match peek st with
              | T_semi, _ -> advance st
              | _ -> ());
              ([], None)
        in
        blocks :=
          {
            Diagram.block_id = id;
            block_type = btype;
            parameters;
            ports;
            annotation;
          }
          :: !blocks;
        go ()
    | T_ident "connect", _ ->
        advance st;
        let b1 = expect_ident st "a block id" in
        expect st T_dot "'.'";
        let p1 = expect_ident st "a port name" in
        expect st T_arrow "'->'";
        let b2 = expect_ident st "a block id" in
        expect st T_dot "'.'";
        let p2 = expect_ident st "a port name" in
        expect st T_semi "';'";
        connections := Diagram.connect (b1, p1) (b2, p2) :: !connections;
        go ()
    | T_ident "subsystem", _ ->
        advance st;
        let sub_name = expect_ident st "a subsystem name" in
        subsystems := parse_body st sub_name :: !subsystems;
        go ()
    | t, l ->
        fail l
          (Printf.sprintf "expected 'block', 'connect', 'subsystem' or '}', found %s"
             (token_desc t))
  in
  go ()

let parse src =
  let st = { toks = tokenize src } in
  (match peek st with
  | T_ident "diagram", _ -> advance st
  | t, l -> fail l (Printf.sprintf "expected 'diagram', found %s" (token_desc t)));
  let name = expect_ident st "a diagram name" in
  let d = parse_body st name in
  (match peek st with
  | T_eof, _ -> d
  | t, l -> fail l (Printf.sprintf "trailing %s" (token_desc t)))

let parse_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))

(* ---------- printing ---------- *)

(* Lossless: numbers in their shortest exact decimal form, strings with
   only the two characters the lexer unescapes ('"' and '\\') escaped,
   so [parse (print d)] gives back every parameter bit for bit. *)
let print_value = function
  | Diagram.P_num f -> Modelio.Float_text.to_string f
  | Diagram.P_str s ->
      let buf = Buffer.create (String.length s + 2) in
      Buffer.add_char buf '"';
      String.iter
        (fun c ->
          if c = '"' || c = '\\' then Buffer.add_char buf '\\';
          Buffer.add_char buf c)
        s;
      Buffer.add_char buf '"';
      Buffer.contents buf
  | Diagram.P_bool b -> string_of_bool b

let print d =
  let buf = Buffer.create 512 in
  let indent depth = String.make (depth * 2) ' ' in
  let print_ports (b : Diagram.block) =
    if b.Diagram.ports = Diagram.two_terminal_ports then ""
    else
      let kind_str = function
        | Diagram.In_port -> "in"
        | Diagram.Out_port -> "out"
        | Diagram.Conserving -> "conserving"
      in
      Printf.sprintf " ports (%s)"
        (String.concat ", "
           (List.map
              (fun (p : Diagram.port) ->
                kind_str p.Diagram.port_kind ^ " " ^ p.Diagram.port_name)
              b.Diagram.ports))
  in
  let rec go depth keyword (d : Diagram.t) =
    Buffer.add_string buf
      (Printf.sprintf "%s%s %s {\n" (indent depth) keyword d.Diagram.diagram_name);
    List.iter
      (fun (b : Diagram.block) ->
        let params =
          b.Diagram.parameters
          @
          match b.Diagram.annotation with
          | Some a -> [ ("annotation", Diagram.P_str a) ]
          | None -> []
        in
        if params = [] then
          Buffer.add_string buf
            (Printf.sprintf "%sblock %s : %s%s;\n" (indent (depth + 1))
               b.Diagram.block_id b.Diagram.block_type (print_ports b))
        else begin
          Buffer.add_string buf
            (Printf.sprintf "%sblock %s : %s%s {\n" (indent (depth + 1))
               b.Diagram.block_id b.Diagram.block_type (print_ports b));
          List.iter
            (fun (k, v) ->
              Buffer.add_string buf
                (Printf.sprintf "%s%s = %s;\n" (indent (depth + 2)) k
                   (print_value v)))
            params;
          Buffer.add_string buf (Printf.sprintf "%s}\n" (indent (depth + 1)))
        end)
      d.Diagram.blocks;
    List.iter
      (fun (c : Diagram.connection) ->
        Buffer.add_string buf
          (Printf.sprintf "%sconnect %s.%s -> %s.%s;\n" (indent (depth + 1))
             c.Diagram.from_ep.Diagram.ep_block c.Diagram.from_ep.Diagram.ep_port
             c.Diagram.to_ep.Diagram.ep_block c.Diagram.to_ep.Diagram.ep_port))
      d.Diagram.connections;
    List.iter (go (depth + 1) "subsystem") d.Diagram.subsystems;
    Buffer.add_string buf (Printf.sprintf "%s}\n" (indent depth))
  in
  go 0 "diagram" d;
  Buffer.contents buf

let write_file path d =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (print d))

(* ---------- model driver ---------- *)

let rec diagram_to_mvalue (d : Diagram.t) =
  let open Modelio in
  let param_value = function
    | Diagram.P_num f -> Mvalue.Num f
    | Diagram.P_str s -> Mvalue.Str s
    | Diagram.P_bool b -> Mvalue.Bool b
  in
  let block_value (b : Diagram.block) =
    Mvalue.Record
      [
        ("id", Mvalue.Str b.Diagram.block_id);
        ("type", Mvalue.Str b.Diagram.block_type);
        ( "parameters",
          Mvalue.Record
            (List.map (fun (k, v) -> (k, param_value v)) b.Diagram.parameters) );
        ( "annotation",
          match b.Diagram.annotation with
          | Some a -> Mvalue.Str a
          | None -> Mvalue.Null );
        ( "ports",
          Mvalue.Seq
            (List.map
               (fun (p : Diagram.port) -> Mvalue.Str p.Diagram.port_name)
               b.Diagram.ports) );
      ]
  in
  let connection_value (c : Diagram.connection) =
    Mvalue.Record
      [
        ("from", Mvalue.Str (c.Diagram.from_ep.Diagram.ep_block ^ "." ^ c.Diagram.from_ep.Diagram.ep_port));
        ("to", Mvalue.Str (c.Diagram.to_ep.Diagram.ep_block ^ "." ^ c.Diagram.to_ep.Diagram.ep_port));
      ]
  in
  Mvalue.Record
    [
      ("name", Mvalue.Str d.Diagram.diagram_name);
      ("blocks", Mvalue.Seq (List.map block_value d.Diagram.blocks));
      ("connections", Mvalue.Seq (List.map connection_value d.Diagram.connections));
      ("subsystems", Mvalue.Seq (List.map diagram_to_mvalue d.Diagram.subsystems));
    ]

let install_driver () =
  Modelio.Driver.register
    {
      Modelio.Driver.driver_name = "blockdiag";
      load =
        (fun ~location ~metadata:_ ->
          match parse_file location with
          | d -> diagram_to_mvalue d
          | exception Parse_error { line; message } ->
              raise
                (Modelio.Driver.Load_error
                   {
                     driver = "blockdiag";
                     location;
                     message = Printf.sprintf "line %d: %s" line message;
                   }));
    }

let () = install_driver ()
