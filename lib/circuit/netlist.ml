type t = { netlist_name : string; rev_elements : Element.t list }

let ground = "gnd"

let normalise_node n =
  match String.lowercase_ascii n with "0" | "gnd" -> ground | _ -> n

let empty netlist_name = { netlist_name; rev_elements = [] }

let name t = t.netlist_name

let find t id =
  List.find_opt (fun (e : Element.t) -> String.equal e.Element.id id) t.rev_elements

let normalise (e : Element.t) =
  {
    e with
    Element.node_a = normalise_node e.Element.node_a;
    node_b = normalise_node e.Element.node_b;
  }

let duplicate id =
  invalid_arg (Printf.sprintf "Netlist.add: duplicate element id %s" id)

let add t (e : Element.t) =
  if Option.is_some (find t e.Element.id) then duplicate e.Element.id;
  { t with rev_elements = normalise e :: t.rev_elements }

let of_elements netlist_name elements =
  let ids = Hashtbl.create 64 in
  let rev_elements =
    List.fold_left
      (fun acc (e : Element.t) ->
        if Hashtbl.mem ids e.Element.id then duplicate e.Element.id;
        Hashtbl.add ids e.Element.id ();
        normalise e :: acc)
      [] elements
  in
  { netlist_name; rev_elements }

let elements t = List.rev t.rev_elements

let replace t id kind =
  if Option.is_none (find t id) then raise Not_found;
  {
    t with
    rev_elements =
      List.map
        (fun (e : Element.t) ->
          if String.equal e.Element.id id then { e with Element.kind } else e)
        t.rev_elements;
  }

let remove t id =
  if Option.is_none (find t id) then raise Not_found;
  {
    t with
    rev_elements =
      List.filter
        (fun (e : Element.t) -> not (String.equal e.Element.id id))
        t.rev_elements;
  }

let nodes t =
  List.fold_left
    (fun acc (e : Element.t) ->
      let add n acc =
        if String.equal n ground || List.mem n acc then acc else n :: acc
      in
      add e.Element.node_a (add e.Element.node_b acc))
    [] t.rev_elements
  |> List.sort String.compare

let element_count t = List.length t.rev_elements

let connected_to_ground t node =
  let node = normalise_node node in
  if String.equal node ground then true
  else begin
    let adjacency = Hashtbl.create 16 in
    List.iter
      (fun (e : Element.t) ->
        if Element.conducts e.Element.kind then begin
          Hashtbl.add adjacency e.Element.node_a e.Element.node_b;
          Hashtbl.add adjacency e.Element.node_b e.Element.node_a
        end)
      t.rev_elements;
    let visited = Hashtbl.create 16 in
    let rec dfs n =
      if String.equal n ground then true
      else if Hashtbl.mem visited n then false
      else begin
        Hashtbl.add visited n ();
        List.exists dfs (Hashtbl.find_all adjacency n)
      end
    in
    dfs node
  end

let validate t =
  let problems = ref [] in
  List.iter
    (fun n ->
      if not (connected_to_ground t n) then
        problems :=
          Printf.sprintf "node '%s' has no conducting path to ground" n
          :: !problems)
    (nodes t);
  List.rev !problems
