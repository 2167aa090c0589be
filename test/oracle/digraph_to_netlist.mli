(** The reference {!Blockdiag.To_netlist.convert} is held to: the same
    [result] (element order, net names, skipped blocks, block types) or
    the same exception, computed the straightforward way — ports interned
    as ["block.port"] strings in a {!Graph.Digraph}, nets as its
    undirected components, the catalogue looked up per use and each
    element added with {!Circuit.Netlist.add}. *)

val convert : Blockdiag.Diagram.t -> Blockdiag.To_netlist.result
