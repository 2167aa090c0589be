(** Electrical-net extraction: block diagram → {!Circuit.Netlist}.

    Conserving ports wired together collapse into nets; any net containing
    a ["ground"] block's port becomes the ground net.  Simulation-only
    blocks (scopes, solver configs) and pure signal blocks are skipped.
    Subsystem contents are flattened with ["<subsystem>/<block>"] ids.

    One pass over the flattened blocks: each block's catalogue type is
    looked up once ({!Circuit.Library.canonical}), each (block, port) pair
    is a numbered slot, the connections union slots, and the netlist is
    built from the element list in one {!Circuit.Netlist.of_elements}.
    The reference it is tested against, built on a string-keyed
    [Graph.Digraph], lives in the tests. *)

type skipped = { block_id : string; reason : string }

type result = {
  netlist : Circuit.Netlist.t;
  skipped : skipped list;  (** non-electrical blocks left out *)
  block_types : (string * string) list;
      (** element id → original block type (e.g. ["MC1", "microcontroller"]),
          so the reliability model resolves MCU-as-load blocks correctly *)
}

exception Unsupported_block of { block_id : string; block_type : string }

val rejection : exn -> string option
(** The message for what {!convert} raises on a diagram it rejects:
    ["block W1: unsupported electrical block type 'widget'"] for
    {!Unsupported_block}, the message of an [Invalid_argument]; [None]
    for any other exception. *)

val convert : Diagram.t -> result
(** Elements are in block order (a subsystem's blocks after its parent
    level's); nets are named ["n1"], ["n2"]... in the order the elements
    first use them.  Raises {!Unsupported_block} for electrical-looking
    two-terminal blocks whose type the converter does not know (signal
    blocks are skipped, not raised), and [Invalid_argument] for a value
    {!Circuit.Element.make} rejects (a non-positive resistance...) and for
    two elements with one id.

    A block id that repeats after flattening (two subsystems of one name)
    names one set of ports: a port of the same name on both blocks is one
    net.  Two such blocks that both become elements raise the
    duplicate-id [Invalid_argument]. *)
