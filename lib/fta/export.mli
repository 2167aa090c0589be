(** Fault-tree export: Graphviz dot for documentation, Open-PSA MEF XML
    for interchange with quantitative FTA tools. *)

val to_dot : ?name:string -> Fault_tree.t -> string
(** Graphviz digraph, top event first.  Gates render as shaped nodes
    (AND trapezium, OR inverted-house, k/N diamond), basic events as
    circles labelled with their rate when known.  Node ids are sanitised;
    repeated basic events share one node, as is conventional. *)

val to_open_psa : ?model_name:string -> Fault_tree.t -> Modelio.Xml.element
(** An Open-PSA Model Exchange Format document: one fault tree whose top
    gate is ["top"], gate definitions for every internal node, and
    [define-basic-event] entries with exponential rates (in per-hour)
    when FIT data is present.  A FIT of 1e-9 per hour cannot be converted
    both ways by float arithmetic without rounding, so each such event
    also carries its FIT as an MEF attribute ([<attribute name="fit">]),
    printed with {!Modelio.Float_text}: {!of_open_psa} reads every FIT
    back bit for bit. *)

val to_open_psa_string : ?model_name:string -> Fault_tree.t -> string

val save_dot : path:string -> ?name:string -> Fault_tree.t -> unit

val save_open_psa : path:string -> ?model_name:string -> Fault_tree.t -> unit

(** {1 Import} *)

exception Format_error of string
(** Raised by the Open-PSA readers on a document this importer cannot
    interpret (missing fault tree, dangling gate reference, unsupported
    formula connective). *)

val of_open_psa : Modelio.Xml.element -> Fault_tree.t
(** Reads an Open-PSA MEF document back into the unified IR: the tree
    rooted at the gate named ["top"] of the first [define-fault-tree]
    (falling back to the first defined gate when there is no ["top"]).
    Supports [and]/[or]/[atleast] connectives, [gate] references and
    [basic-event] leaves; [exponential] rates in per-hour convert back
    to FIT.  An event's ["fit"] attribute (as {!to_open_psa} writes it)
    is taken as its FIT when the rate beside it is [fit *. 1e-9], as
    the writer derives it; a rate edited since, or one without the
    attribute, is divided by 1e-9.  Inverse of {!to_open_psa} up to gate naming — the writer
    suffixes a counter, so boolean structure, event ids and rates
    round-trip but gate ids do not.
    @raise Format_error on malformed or unsupported input. *)

val parse_open_psa : string -> Fault_tree.t
(** [of_open_psa] composed with the XML parser.
    @raise Modelio.Xml.Parse_error on ill-formed XML. *)
