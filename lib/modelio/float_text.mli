(** Floats written so that they read back unchanged.

    Model files are the source of truth for a design: a writer that
    rounds a parameter saves a different design.  Display output (FMEA
    tables, FIT labels, Graphviz) keeps its short [%g] forms. *)

val to_string : float -> string
(** The shortest of [%.15g], [%.16g] and [%.17g] that [float_of_string]
    reads back to the same bits: [48.] is ["48"], [48.00000000001] is
    ["48.00000000001"], [0.1] is ["0.1"].  Every finite float, subnormals
    and [-0.] included, round-trips; NaN and the infinities print as
    [%.17g] does. *)
