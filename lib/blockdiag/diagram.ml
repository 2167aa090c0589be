type param_value = P_num of float | P_str of string | P_bool of bool
[@@deriving eq, show]

type port_kind = In_port | Out_port | Conserving [@@deriving eq, show]

type port = { port_name : string; port_kind : port_kind } [@@deriving eq, show]

type block = {
  block_id : string;
  block_type : string;
  parameters : (string * param_value) list;
  ports : port list;
  annotation : string option;
}
[@@deriving eq, show]

type endpoint = { ep_block : string; ep_port : string } [@@deriving eq, show]

type connection = { from_ep : endpoint; to_ep : endpoint } [@@deriving eq, show]

type t = {
  diagram_name : string;
  blocks : block list;
  connections : connection list;
  subsystems : t list;
}
[@@deriving eq, show]

let two_terminal_ports =
  [
    { port_name = "a"; port_kind = Conserving };
    { port_name = "b"; port_kind = Conserving };
  ]

let block ?(parameters = []) ?(ports = two_terminal_ports) ?annotation ~id
    ~block_type () =
  { block_id = id; block_type; parameters; ports; annotation }

let diagram ?(connections = []) ?(subsystems = []) ~name blocks =
  { diagram_name = name; blocks; connections; subsystems }

let connect (b1, p1) (b2, p2) =
  {
    from_ep = { ep_block = b1; ep_port = p1 };
    to_ep = { ep_block = b2; ep_port = p2 };
  }

let find_block t id =
  List.find_opt (fun b -> String.equal b.block_id id) t.blocks

let rec find_block_deep t id =
  match find_block t id with
  | Some b -> Some b
  | None -> List.find_map (fun s -> find_block_deep s id) t.subsystems

let rec all_blocks t =
  t.blocks @ List.concat_map all_blocks t.subsystems

let rec block_count t =
  List.length t.blocks
  + List.length t.connections
  + List.fold_left (fun acc s -> acc + block_count s) 0 t.subsystems

let param_num b name =
  match List.assoc_opt name b.parameters with
  | Some (P_num f) -> Some f
  | Some (P_str s) -> float_of_string_opt s
  | Some (P_bool _) | None -> None

let param_str b name =
  match List.assoc_opt name b.parameters with
  | Some (P_str s) -> Some s
  | Some (P_num f) -> Some (Printf.sprintf "%g" f)
  | Some (P_bool b) -> Some (string_of_bool b)
  | None -> None
