(** Dense Modified Nodal Analysis: the reference {!Circuit.Dc} is checked
    against.

    Every Newton iteration assembles the full MNA system from the element
    list into a dense matrix and solves it with {!Numeric.Lu} — no
    prepared base system, no sparse ordering, no low-rank re-solve.  The
    device equations are {!Circuit.Dc}'s own ({!Circuit.Dc.diode_current},
    {!Circuit.Dc.diode_conductance}), and the Newton damping and
    tolerances are the same, so results agree with the sparse solver to
    roundoff on linear circuits and to Newton tolerance with diodes. *)

type solution

val analyse :
  ?gmin:float ->
  Circuit.Netlist.t ->
  (solution, Circuit.Dc.error) result
(** Default [gmin] 1e-9 S, 200 Newton iterations.  A singular system is
    [Singular_system "pivot failure at unknown k"], numbered as in
    {!Circuit.Dc.analyse}. *)

val node_voltage : solution -> string -> float
(** 0.0 for ground; raises [Not_found] for unknown nodes. *)

val element_current : solution -> string -> float
(** Current a → b through the element; raises [Not_found] for unknown
    ids. *)

val all_sensor_readings : solution -> (string * float) list
(** Current sensors then voltage sensors, each in netlist order. *)
