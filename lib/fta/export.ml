let sanitise id =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    id

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_dot ?(name = "fault_tree") tree =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "digraph %s {\n" (sanitise name);
  add "  rankdir=TB;\n  node [fontname=\"Helvetica\"];\n";
  let emitted_events = Hashtbl.create 16 in
  let counter = ref 0 in
  let rec emit node =
    match node with
    | Fault_tree.Basic e ->
        let nid = "ev_" ^ sanitise e.Fault_tree.event_id in
        if not (Hashtbl.mem emitted_events nid) then begin
          Hashtbl.add emitted_events nid ();
          let rate =
            match e.Fault_tree.rate_fit with
            | Some r -> Printf.sprintf "\\n%g FIT" r
            | None -> ""
          in
          add "  %s [shape=circle, label=\"%s%s\"];\n" nid
            (escape e.Fault_tree.event_id) rate
        end;
        nid
    | Fault_tree.And (id, children) ->
        let nid = Printf.sprintf "g%d_%s" !counter (sanitise id) in
        incr counter;
        add "  %s [shape=trapezium, label=\"AND\\n%s\"];\n" nid (escape id);
        List.iter (fun c -> add "  %s -> %s;\n" nid (emit c)) children;
        nid
    | Fault_tree.Or (id, children) ->
        let nid = Printf.sprintf "g%d_%s" !counter (sanitise id) in
        incr counter;
        add "  %s [shape=invhouse, label=\"OR\\n%s\"];\n" nid (escape id);
        List.iter (fun c -> add "  %s -> %s;\n" nid (emit c)) children;
        nid
    | Fault_tree.Koon (id, k, children) ->
        let nid = Printf.sprintf "g%d_%s" !counter (sanitise id) in
        incr counter;
        add "  %s [shape=diamond, label=\"%d/%d\\n%s\"];\n" nid k
          (List.length children) (escape id);
        List.iter (fun c -> add "  %s -> %s;\n" nid (emit c)) children;
        nid
  in
  ignore (emit tree);
  add "}\n";
  Buffer.contents buf

(* ---------- Open-PSA MEF ---------- *)

let el tag attributes children =
  Modelio.Xml.Element { Modelio.Xml.tag; attributes; children }

let gate_counter = ref 0

let rec formula_of node (definitions : Modelio.Xml.t list ref) =
  match node with
  | Fault_tree.Basic e ->
      el "basic-event" [ ("name", e.Fault_tree.event_id) ] []
  | Fault_tree.And (id, children) ->
      define_gate id "and" children definitions
  | Fault_tree.Or (id, children) ->
      define_gate id "or" children definitions
  | Fault_tree.Koon (id, k, children) ->
      incr gate_counter;
      let gname = Printf.sprintf "%s_%d" (sanitise id) !gate_counter in
      let child_formulas = List.map (fun c -> formula_of c definitions) children in
      definitions :=
        el "define-gate"
          [ ("name", gname) ]
          [ el "atleast" [ ("min", string_of_int k) ] child_formulas ]
        :: !definitions;
      el "gate" [ ("name", gname) ] []

and define_gate id connective children definitions =
  incr gate_counter;
  let gname = Printf.sprintf "%s_%d" (sanitise id) !gate_counter in
  let child_formulas = List.map (fun c -> formula_of c definitions) children in
  definitions :=
    el "define-gate" [ ("name", gname) ] [ el connective [] child_formulas ]
    :: !definitions;
  el "gate" [ ("name", gname) ] []

(* ---------- rates: FIT <-> per hour ----------

   The MEF writes exponential rates per hour, and a FIT is 1e-9 per
   hour.  That conversion is the one place where a float would round:
   no rate r gives back every FIT as r /. 1e-9.  So each basic event
   carries its FIT too, as an MEF attribute printed with
   {!Modelio.Float_text}, and the reader takes it whenever the rate next
   to it is fit *. 1e-9.  A file whose rate was edited elsewhere, or
   that has no such attribute, converts the rate. *)

let fit_attribute = "fit"

let fit_of_rate ~fit rate =
  match Option.bind fit float_of_string_opt with
  | Some fit when Float.equal (fit *. 1e-9) rate -> fit
  | Some _ | None -> rate /. 1e-9

let to_open_psa ?(model_name = "decisive-fta") tree =
  gate_counter := 0;
  let definitions = ref [] in
  let top_formula = formula_of tree definitions in
  let basic_defs =
    List.map
      (fun (e : Fault_tree.event) ->
        el "define-basic-event"
          [ ("name", e.Fault_tree.event_id) ]
          (match e.Fault_tree.rate_fit with
          | Some fit ->
              [
                el "attributes" []
                  [
                    el "attribute"
                      [
                        ("name", fit_attribute);
                        ("value", Modelio.Float_text.to_string fit);
                      ]
                      [];
                  ];
                el "exponential" []
                  [
                    el "float"
                      [ ("value", Modelio.Float_text.to_string (fit *. 1e-9)) ]
                      [];
                  ];
              ]
          | None -> []))
      (Fault_tree.basic_events tree)
  in
  {
    Modelio.Xml.tag = "opsa-mef";
    attributes = [ ("name", model_name) ];
    children =
      [
        el "define-fault-tree"
          [ ("name", "top") ]
          ((el "define-gate" [ ("name", "top") ] [ top_formula ]
           :: List.rev !definitions)
          @ basic_defs);
      ];
  }

let to_open_psa_string ?model_name tree =
  Modelio.Xml.to_string (to_open_psa ?model_name tree)

let save_dot ~path ?name tree =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_dot ?name tree))

(* ---------- Open-PSA MEF import ---------- *)

exception Format_error of string

let format_error fmt = Printf.ksprintf (fun m -> raise (Format_error m)) fmt

let of_open_psa (root : Modelio.Xml.element) =
  let ft =
    match Modelio.Xml.find_first root "define-fault-tree" with
    | Some ft -> ft
    | None -> format_error "Open-PSA import: no define-fault-tree element"
  in
  let attr el name =
    match Modelio.Xml.attribute el name with
    | Some v -> v
    | None ->
        format_error "Open-PSA import: <%s> missing attribute '%s'"
          el.Modelio.Xml.tag name
  in
  let gates = Hashtbl.create 16 in
  let first_gate = ref None in
  let rates = Hashtbl.create 16 in
  List.iter
    (fun (el : Modelio.Xml.element) ->
      match el.Modelio.Xml.tag with
      | "define-gate" ->
          let name = attr el "name" in
          if !first_gate = None then first_gate := Some name;
          Hashtbl.replace gates name el
      | "define-basic-event" ->
          (* The FIT attribute the writer adds, if any. *)
          let fit =
            Option.bind (Modelio.Xml.find_first el "attributes") (fun a ->
                List.find_map
                  (fun (at : Modelio.Xml.element) ->
                    if
                      Modelio.Xml.attribute at "name" = Some fit_attribute
                    then Modelio.Xml.attribute at "value"
                    else None)
                  (Modelio.Xml.find_children a "attribute"))
          in
          let rate =
            match Modelio.Xml.find_first el "exponential" with
            | None -> None
            | Some e ->
                Option.map
                  (fun f ->
                    let v = attr f "value" in
                    match float_of_string_opt v with
                    | Some r -> fit_of_rate ~fit r
                    | None ->
                        format_error
                          "Open-PSA import: non-numeric rate '%s'" v)
                  (Modelio.Xml.find_first e "float")
          in
          Hashtbl.replace rates (attr el "name") rate
      | _ -> ())
    (Modelio.Xml.child_elements ft);
  let rec formula (el : Modelio.Xml.element) =
    match el.Modelio.Xml.tag with
    | "basic-event" ->
        let name = attr el "name" in
        Fault_tree.basic
          ?rate_fit:(Option.join (Hashtbl.find_opt rates name))
          name
    | "gate" -> gate (attr el "name")
    | "and" ->
        Fault_tree.and_ "g" (List.map formula (Modelio.Xml.child_elements el))
    | "or" ->
        Fault_tree.or_ "g" (List.map formula (Modelio.Xml.child_elements el))
    | "atleast" ->
        let k =
          let m = attr el "min" in
          match int_of_string_opt m with
          | Some k -> k
          | None -> format_error "Open-PSA import: non-integer min '%s'" m
        in
        Fault_tree.koon "v" ~k (List.map formula (Modelio.Xml.child_elements el))
    | tag -> format_error "Open-PSA import: unsupported formula tag '%s'" tag
  and gate name =
    match Hashtbl.find_opt gates name with
    | None -> format_error "Open-PSA import: undefined gate '%s'" name
    | Some def -> (
        match Modelio.Xml.child_elements def with
        | [ f ] -> formula f
        | _ ->
            format_error
              "Open-PSA import: gate '%s' must hold exactly one formula" name)
  in
  let top =
    if Hashtbl.mem gates "top" then "top"
    else
      match !first_gate with
      | Some g -> g
      | None -> format_error "Open-PSA import: fault tree defines no gates"
  in
  try gate top
  with Invalid_argument m -> format_error "Open-PSA import: %s" m

let parse_open_psa s = of_open_psa (Modelio.Xml.parse s)

let save_open_psa ~path ?model_name tree =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "<?xml version=\"1.0\"?>\n";
      output_string oc (to_open_psa_string ?model_name tree);
      output_char oc '\n')
