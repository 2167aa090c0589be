(** Block diagrams — the stand-in for Simulink/Simscape models.

    A diagram is a set of typed, parameterised blocks wired port-to-port,
    with nested subsystems.  Electrical blocks use *conserving* ports
    (wires merge into nets); signal blocks use directed in/out ports.
    {!module:To_netlist} extracts the electrical net for simulation and
    {!module:Transform} maps diagrams to SSAM. *)

type param_value = P_num of float | P_str of string | P_bool of bool
[@@deriving eq, show]

type port_kind = In_port | Out_port | Conserving [@@deriving eq, show]

type port = { port_name : string; port_kind : port_kind } [@@deriving eq, show]

type block = {
  block_id : string;
  block_type : string;  (** catalogue name: ["diode"], ["gain"], ["mcu"]... *)
  parameters : (string * param_value) list;
  ports : port list;
  annotation : string option;
      (** the paper's "annotate subsystems" work-around: marks what a
          subsystem stands for (e.g. a complex MCU). *)
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

val block :
  ?parameters:(string * param_value) list ->
  ?ports:port list ->
  ?annotation:string ->
  id:string ->
  block_type:string ->
  unit ->
  block

val two_terminal_ports : port list
(** Conserving ports ["a"] and ["b"] — the default for electrical blocks. *)

val diagram :
  ?connections:connection list ->
  ?subsystems:t list ->
  name:string ->
  block list ->
  t

val connect : string * string -> string * string -> connection
(** [connect (block, port) (block', port')]. *)

val find_block : t -> string -> block option
(** Searches this diagram level only. *)

val find_block_deep : t -> string -> block option
(** Searches subsystems too (first match wins). *)

val all_blocks : t -> block list
(** Depth-first over subsystems. *)

val block_count : t -> int
(** Blocks + connections, over all levels — "elements in the design" as
    counted by the paper's evaluation subjects. *)

val param_num : block -> string -> float option

val param_str : block -> string -> string option
