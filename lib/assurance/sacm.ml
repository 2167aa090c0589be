type artifact = {
  artifact_location : string;
  artifact_driver : string;
  acceptance_query : string option;
  artifact_description : string;
}
[@@deriving eq, show]

type kind = Goal | Strategy | Solution | Context | Assumption | Justification
[@@deriving eq, show]

type node = {
  node_id : string;
  kind : kind;
  statement : string;
  supported_by : node list;
  in_context_of : node list;
  artifact : artifact option;
}
[@@deriving eq, show]

type case = { case_name : string; root : node } [@@deriving eq, show]

let artifact ?query ?(description = "") ~location ~driver () =
  {
    artifact_location = location;
    artifact_driver = driver;
    acceptance_query = query;
    artifact_description = description;
  }

let node ?(supported_by = []) ?(in_context_of = []) ?artifact ~id kind statement
    =
  { node_id = id; kind; statement; supported_by; in_context_of; artifact }

let goal ?supported_by ?in_context_of ~id statement =
  node ?supported_by ?in_context_of ~id Goal statement

let strategy ?supported_by ?in_context_of ~id statement =
  node ?supported_by ?in_context_of ~id Strategy statement

let solution ?artifact ~id statement = node ?artifact ~id Solution statement

let context ~id statement = node ~id Context statement

let fold f init case =
  let rec go acc n =
    let acc = f acc n in
    let acc = List.fold_left go acc n.supported_by in
    List.fold_left go acc n.in_context_of
  in
  go init case.root

let find case id =
  fold
    (fun acc n ->
      match acc with
      | Some _ -> acc
      | None -> if String.equal n.node_id id then Some n else None)
    None case

let solutions case =
  List.rev
    (fold (fun acc n -> if n.kind = Solution then n :: acc else acc) [] case)

let undeveloped_goals case =
  List.rev
    (fold
       (fun acc n ->
         match n.kind with
         | (Goal | Strategy) when n.supported_by = [] -> n :: acc
         | Goal | Strategy | Solution | Context | Assumption | Justification ->
             acc)
       [] case)

let validate case =
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let seen = Hashtbl.create 16 in
  let check acc n =
    ignore acc;
    if Hashtbl.mem seen n.node_id then note "duplicate node id '%s'" n.node_id
    else Hashtbl.add seen n.node_id ();
    (match n.kind with
    | Solution when n.supported_by <> [] ->
        note "solution '%s' has supporting nodes" n.node_id
    | Context | Assumption | Justification ->
        if n.supported_by <> [] then
          note "context-kind node '%s' has supporting nodes" n.node_id
    | Goal | Strategy | Solution -> ());
    List.iter
      (fun child ->
        match child.kind with
        | Context | Assumption | Justification ->
            note "node '%s' is supported by context-kind node '%s'" n.node_id
              child.node_id
        | Goal | Strategy | Solution -> ())
      n.supported_by;
    ()
  in
  fold check () case;
  List.rev !problems
