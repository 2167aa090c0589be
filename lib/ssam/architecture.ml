type component_type = System | Hardware | Software [@@deriving eq, ord, show]

type tolerance = OneOoOne | OneOoTwo | OneOoThree | TwoOoThree
[@@deriving eq, ord, show]

let tolerance_to_string = function
  | OneOoOne -> "1oo1"
  | OneOoTwo -> "1oo2"
  | OneOoThree -> "1oo3"
  | TwoOoThree -> "2oo3"

let tolerance_of_string s =
  match String.lowercase_ascii s with
  | "1oo1" | "1001" -> Some OneOoOne
  | "1oo2" | "1002" -> Some OneOoTwo
  | "1oo3" | "1003" -> Some OneOoThree
  | "2oo3" | "2003" -> Some TwoOoThree
  | _ -> None

type direction = Input | Output | Bidirectional [@@deriving eq, ord, show]

type io_node = {
  io_meta : Base.meta;
  direction : direction;
  value : float option;
  lower_limit : float option;
  upper_limit : float option;
}
[@@deriving eq, show]

type failure_nature =
  | Loss_of_function
  | Degraded
  | Erroneous
  | Other of string
[@@deriving eq, show]

type failure_impact = DVF | IVF | Safe_impact [@@deriving eq, show]

type failure_effect = {
  fe_meta : Base.meta;
  effect_description : string;
  impact : failure_impact;
  affected_components : Base.id list;
}
[@@deriving eq, show]

type failure_mode = {
  fm_meta : Base.meta;
  nature : failure_nature;
  distribution_pct : float;
  fm_cause : string;
  fm_exposure : string;
  hazards : Base.id list;
  effects : failure_effect list;
}
[@@deriving eq, show]

type safety_mechanism = {
  sm_meta : Base.meta;
  coverage_pct : float;
  sm_cost : float;
  covers : Base.id list;
}
[@@deriving eq, show]

type func = { fn_meta : Base.meta; tolerance : tolerance } [@@deriving eq, show]

type component = {
  c_meta : Base.meta;
  component_type : component_type;
  fit : float;
  integrity : Requirement.integrity_level option;
  safety_related : bool;
  dynamic : bool;
  io_nodes : io_node list;
  failure_modes : failure_mode list;
  safety_mechanisms : safety_mechanism list;
  functions : func list;
  children : component list;
  connections : relationship list;
}

and relationship = {
  rel_meta : Base.meta;
  from_component : Base.id;
  from_node : Base.id option;
  to_component : Base.id;
  to_node : Base.id option;
}
[@@deriving eq, show]

type element = Component of component | Relationship of relationship
[@@deriving eq, show]

type package_interface = { interface_meta : Base.meta; exports : Base.id list }
[@@deriving eq, show]

type package = {
  package_meta : Base.meta;
  elements : element list;
  interfaces : package_interface list;
}
[@@deriving eq, show]

let io_node ?value ?lower_limit ?upper_limit ~meta direction =
  { io_meta = meta; direction; value; lower_limit; upper_limit }

let failure_effect ?(affected = []) ?(description = "") ~meta impact =
  {
    fe_meta = meta;
    effect_description = description;
    impact;
    affected_components = affected;
  }

let failure_mode ?(cause = "") ?(exposure = "") ?(hazards = []) ?(effects = [])
    ~meta ~nature ~distribution_pct () =
  {
    fm_meta = meta;
    nature;
    distribution_pct;
    fm_cause = cause;
    fm_exposure = exposure;
    hazards;
    effects;
  }

let safety_mechanism ?(covers = []) ~meta ~coverage_pct ~cost () =
  { sm_meta = meta; coverage_pct; sm_cost = cost; covers }

let func ~meta tolerance = { fn_meta = meta; tolerance }

let component ?(component_type = Hardware) ?(fit = 0.0) ?integrity
    ?(safety_related = false) ?(dynamic = false) ?(io_nodes = [])
    ?(failure_modes = []) ?(safety_mechanisms = []) ?(functions = [])
    ?(children = []) ?(connections = []) ~meta () =
  {
    c_meta = meta;
    component_type;
    fit;
    integrity;
    safety_related;
    dynamic;
    io_nodes;
    failure_modes;
    safety_mechanisms;
    functions;
    children;
    connections;
  }

let relationship ?from_node ?to_node ~meta ~from_component ~to_component () =
  { rel_meta = meta; from_component; from_node; to_component; to_node }

let package ?(interfaces = []) ~meta elements =
  { package_meta = meta; elements; interfaces }

let component_id c = c.c_meta.Base.id

let component_name c = Base.display_name c.c_meta

let top_components p =
  List.filter_map
    (function Component c -> Some c | Relationship _ -> None)
    p.elements

let relationships p =
  List.filter_map
    (function Relationship r -> Some r | Component _ -> None)
    p.elements

let rec iter_components f c =
  f c;
  List.iter (iter_components f) c.children

let rec fold_components f acc c =
  let acc = f acc c in
  List.fold_left (fold_components f) acc c.children

let find_component root id =
  let found = ref None in
  (try
     iter_components
       (fun c ->
         if String.equal (component_id c) id then begin
           found := Some c;
           raise Exit
         end)
       root
   with Exit -> ());
  !found

let find_in_package p id =
  List.fold_left
    (fun acc c -> match acc with Some _ -> acc | None -> find_component c id)
    None (top_components p)

let count_elements root =
  fold_components
    (fun acc c ->
      acc + 1
      + List.length c.io_nodes
      + List.fold_left
          (fun n fm -> n + 1 + List.length fm.effects)
          0 c.failure_modes
      + List.length c.safety_mechanisms
      + List.length c.functions
      + List.length c.connections)
    0 root

let count_package_elements p =
  List.fold_left
    (fun acc -> function
      | Component c -> acc + count_elements c
      | Relationship _ -> acc + 1)
    0 p.elements

let leaf_components root =
  List.rev
    (fold_components
       (fun acc c -> if c.children = [] then c :: acc else acc)
       [] root)

let is_loss_like = function
  | Loss_of_function -> true
  | Degraded | Erroneous | Other _ -> false

let inputs c =
  List.filter (fun io -> io.direction = Input || io.direction = Bidirectional)
    c.io_nodes

let outputs c =
  List.filter (fun io -> io.direction = Output || io.direction = Bidirectional)
    c.io_nodes

let total_fit root =
  List.fold_left (fun acc c -> acc +. c.fit) 0.0 (leaf_components root)
