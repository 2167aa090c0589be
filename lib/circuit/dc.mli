(** DC operating-point analysis by Modified Nodal Analysis.

    Unknowns are the non-ground node voltages plus one branch current per
    voltage-defined element (sources, inductors — DC shorts — and current
    sensors).  The MNA system is assembled in compressed sparse form and
    factorised by {!Numeric.Sparse} (minimum-degree ordering,
    Gilbert–Peierls LU).  Diodes are solved by damped Newton iteration on
    the Shockley equation.  A small [gmin] conductance from every node to
    ground keeps fault-injected circuits (floating nodes after an "open")
    solvable; the affected readings then collapse towards zero, which is
    exactly the observable the failure-injection FMEA compares.

    This is the one place that knows MNA stamps, the unknown numbering,
    [gmin] and the Newton loop: {!module:Transient} solves its
    backward-Euler companion circuit through {!prepare_elements} and
    {!solve_from}, and {!module:Ac} builds its complex system on
    {!factorise}'s operating-point matrix. *)

type solution

type error =
  | Singular_system of string
  | No_convergence of int  (** Newton iterations exhausted *)

val pp_error : Format.formatter -> error -> unit

val analyse : ?gmin:float -> Netlist.t -> (solution, error) result
(** Default [gmin] 1e-9 S.  Newton runs at most 200 iterations.  Each
    iteration may move a node voltage [v] by at most max(1 V, |v|): a
    node near ground (a diode junction turning on or off) by 1 V, a node
    at several volts by up to its own value, so a rail that a fault
    moves by volts settles in a few iterations.  A circuit that has not
    settled by then is [No_convergence 200].  Equivalent to
    {!prepare} followed by {!solve}.  A singular system is reported as
    [Singular_system "pivot failure at unknown k"], [k] indexing the
    unknowns as node voltages (in {!Netlist.nodes} order) then branch
    currents. *)

(** {1 Prepared solves}

    The hot loop of the failure-injection FMEA is thousands of DC solves
    over near-identical netlists.  {!prepare} hoists everything that
    depends only on the topology — node/branch numbering, element
    partitioning, and the stamps of all {e linear} devices (plus [gmin])
    — into a reusable base system.  {!solve} then runs Newton on top:
    each iteration copies the base matrix/RHS and restamps only the diode
    companion entries, instead of rebuilding the full MNA system from the
    element list.  A circuit without diodes has a single matrix: it is
    factorised once, here, and every solve on it is a substitution.  The
    fill-reducing ordering and the diode stamp positions are computed
    once here and reused by every subsequent factorisation. *)

type prepared

val prepare : ?gmin:float -> Netlist.t -> prepared
(** One element walk, one base-system assembly and the fill-reducing
    ordering of its pattern (and, without diodes, its factors). *)

val prepare_elements : node_names:string list -> Element.t array -> prepared
(** {!prepare} on an element array, with the default [gmin]:
    [node_names] (ground excluded) are the node unknowns, in that order.
    For callers that build their own circuit, such as the transient
    engine's companion circuit. *)

val with_sources : prepared -> Element.t array -> prepared
(** [with_sources p elements] is [p] under the source values of
    [elements], which must match [p]'s elements one for one except in
    the values of [Vsource] and [Isource] elements.  Only the right-hand
    side is rebuilt; the matrix, its ordering and — without diodes — its
    factors are shared with [p].  Raises [Invalid_argument] when an
    element differs in anything else. *)

val size : prepared -> int
(** Number of MNA unknowns (node voltages + branch currents). *)

val backend_used : prepared -> [ `Dense | `Sparse ]
(** Always [`Sparse]: sparse LU is the only MNA backend.  Kept, with its
    original type, because the benchmark driver in [perfbench/] still
    compiles against it. *)

val solve_from : prepared -> float array -> (solution, error) result
(** {!solve} with Newton started from the given unknown vector (see
    {!unknowns}) — e.g. the previous time step's solution.  A circuit
    without diodes needs no start and ignores it.  Raises
    [Invalid_argument] when its length is not {!size}. *)

val newton_iterations : solution -> int
(** The Newton iterations (linear solves) the solution took: 0 for a
    circuit without diodes and for a fault served without Newton (see
    {!inject}).  For an injected fault whose loop was run again with
    refinement, the abandoned run's iterations are included.  A
    {!golden_solution} reports the golden solve's. *)

val unknowns : solution -> float array
(** A copy of the unknown vector: node voltages in the prepared node
    order ({!Netlist.nodes} for {!prepare}), then one branch current per
    voltage source, inductor and current sensor, in element order. *)

val node_unknown : prepared -> string -> int option
(** The unknown of a node voltage; [None] for ground.  Raises
    [Not_found] for an unknown node. *)

val branch_unknown : prepared -> string -> int
(** The branch-current unknown of a voltage source, inductor or current
    sensor.  Raises [Not_found] for other elements and unknown ids. *)

val pivot_failure : int -> error
(** [Singular_system "pivot failure at unknown k"]: how a system that
    loses its pivot at unknown [k] is reported. *)

(** {1 Golden factors and low-rank fault re-solve}

    Injecting a failure mode changes a handful of MNA stamps — an open,
    short or drift on one element is a rank-0/1/2 perturbation
    [A + U·Vᵀ] of the golden matrix.  {!factorise} captures the golden
    factorisation once, together with each diode's port response
    [z_d = A⁻¹(e_a − e_b)]; {!inject} classifies a fault into its
    low-rank delta and re-solves via Sherman–Morrison–Woodbury
    ({!Numeric.Smw}) against the existing factors instead of
    refactorising a freshly assembled faulted system.

    A fault costs one triangular solve per column of its own delta plus
    one for its right-hand side, [y0 = A⁻¹b_fault].  Circuits with other
    diodes warm-start Newton from the golden operating point; there each
    iteration is [y = y0 − Σ_d Δi_eq,d·z_d] followed by a [k × k]
    capacitance solve whose columns are the fault's own plus [z_d] for
    every diode whose conductance moved ([Δg_d] folded into [V]) — no
    triangular solve inside the Newton loop.  A fault whose faulted
    system is so nearly singular that this loop does not settle (a node
    held only by [gmin]) is run again with one step of iterative
    refinement against the golden matrix per iteration. *)

type golden

val factorise : prepared -> (golden, error) result
(** Solve the golden system and keep its factors, operating point and
    diode port responses (one solve per diode) for reuse by {!inject}.
    [golden] is immutable and safe to share across domains. *)

val golden_solution : golden -> solution

val iter_operating_matrix : golden -> (int -> int -> float -> unit) -> unit
(** [f i j v] on every entry of the MNA matrix at the operating point —
    the linear stamps, [gmin] and each diode's small-signal conductance —
    numbered as {!unknowns}. *)

val inject :
  ?on_path:([ `Reused | `Rank_update of int ] -> unit) ->
  golden ->
  element_id:string ->
  Fault.t ->
  (solution, error) result
(** Solve the circuit with the given fault applied to one element,
    reusing the golden factors.  [on_path] reports how the solve was
    served: [`Reused] — the fault does not change the system (e.g. an
    open capacitor) and the golden solution is read again, no solve;
    [`Rank_update k] — a rank-[k] SMW re-solve ([k = 0] is an RHS-only
    change, one substitution against the golden factors; with other
    diodes present, [k] is the largest rank a Newton iteration used:
    the fault's own columns plus the diodes whose conductance moved).
    Raises
    [Not_found] for an unknown element and {!Fault.Not_applicable} as
    {!Fault.inject}.  Results match a full re-analysis of the faulted
    netlist to solver tolerance (roundoff for linear circuits, Newton
    tolerance when diodes are present).  A fault that makes the system
    singular is reported as that re-analysis reports it, naming the
    unknown without a pivot. *)

(** {1 Observables}

    A solution keeps the unknown vector and the topology it was solved
    on; every observable is computed from them when read. *)

val node_voltage : solution -> string -> float
(** 0.0 for ground; raises [Not_found] for unknown nodes. *)

val element_current : solution -> string -> float
(** Current a → b through the element.  Raises [Not_found] for unknown
    ids; 0.0 for voltage sensors, capacitors and open switches. *)

val current_sensor_readings : solution -> (string * float) list
(** [(sensor id, amps)] for every {!Element.Current_sensor}, in netlist
    order. *)

val voltage_sensor_readings : solution -> (string * float) list
(** [(sensor id, volts)] for every {!Element.Voltage_sensor}. *)

val all_sensor_readings : solution -> (string * float) list
(** Current then voltage sensors — the observation vector the
    failure-injection FMEA compares between golden and faulty runs. *)

(** {2 By element index}

    Elements are indexed by their position in {!Netlist.elements}.  A
    fault never moves an element, so an index taken from the golden
    solution reads the same element in every faulted one — whether it
    came from {!inject} or from analysing {!Fault.inject}'s netlist. *)

val element_index : solution -> string -> int
(** Raises [Not_found] for an unknown id. *)

val element_count : solution -> int

val element_current_at : solution -> int -> float
(** {!element_current} of the element at that index. *)

val sensor_reading_at : solution -> int -> float option
(** The reading of the element at that index when it is a current or
    voltage sensor in this solution; [None] otherwise (a fault that opens
    or shorts a sensor removes it). *)

(** {1 Device equations}

    The junction model the Newton companion stamps are built from,
    exposed so that a reference solver outside this module (the test
    suite's dense oracle) uses the same device equations. *)

val diode_current : Element.diode_params -> float -> float
(** Shockley current at a junction voltage, with overflow limiting. *)

val diode_conductance : Element.diode_params -> float -> float
(** The exact derivative of {!diode_current} (limiter chain rule
    included). *)
