(** DC operating-point analysis by Modified Nodal Analysis.

    Unknowns are the non-ground node voltages plus one branch current per
    voltage-defined element (sources, inductors — DC shorts — and current
    sensors).  The MNA system is assembled in compressed sparse form and
    factorised by {!Numeric.Sparse} (minimum-degree ordering,
    Gilbert–Peierls LU).  Diodes are solved by damped Newton iteration on
    the Shockley equation.  A small [gmin] conductance from every node to
    ground keeps fault-injected circuits (floating nodes after an "open")
    solvable; the affected readings then collapse towards zero, which is
    exactly the observable the failure-injection FMEA compares. *)

type solution

type error =
  | Singular_system of string
  | No_convergence of int  (** Newton iterations exhausted *)

val pp_error : Format.formatter -> error -> unit

val analyse : ?gmin:float -> ?max_iterations:int -> ?max_step_param:float -> Netlist.t -> (solution, error) result
(** Default [gmin] 1e-9 S, [max_iterations] 200.  Equivalent to
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
    element list.  Linear circuits skip the copy entirely and factor the
    base system directly.  The fill-reducing ordering and the diode stamp
    positions are computed once here and reused by every subsequent
    factorisation. *)

type prepared

val prepare : ?gmin:float -> Netlist.t -> prepared
(** One element walk, one base-system assembly and the fill-reducing
    ordering of its pattern. *)

val size : prepared -> int
(** Number of MNA unknowns (node voltages + branch currents). *)

val backend_used : prepared -> [ `Dense | `Sparse ]
(** Always [`Sparse]: sparse LU is the only MNA backend.  Kept, with its
    original type, because the benchmark driver in [perfbench/] still
    compiles against it. *)

val solve : ?max_iterations:int -> ?max_step_param:float -> prepared -> (solution, error) result
(** A prepared netlist may be solved any number of times; [prepared] is
    immutable after construction and safe to share across domains. *)

(** {1 Golden factors and low-rank fault re-solve}

    Injecting a failure mode changes a handful of MNA stamps — an open,
    short or drift on one element is a rank-0/1/2 perturbation
    [A + U·Vᵀ] of the golden matrix.  {!factorise} captures the golden
    factorisation once; {!inject} classifies a fault into its low-rank
    delta and re-solves via Sherman–Morrison–Woodbury against the
    existing factors in O(nnz·k) instead of refactorising a freshly
    assembled faulted system.  Circuits with
    diodes warm-start Newton from the golden operating point, each
    iteration adding per-diode [(g(v) − g_op)] rank-1 corrections. *)

type golden

val factorise : ?max_iterations:int -> ?max_step_param:float -> prepared -> (golden, error) result
(** Solve the golden system and keep its factors, operating point and
    solution for reuse by {!inject}.  [golden] is immutable and safe to
    share across domains. *)

val golden_solution : golden -> solution

val inject :
  ?max_iterations:int ->
  ?max_step_param:float ->
  ?on_path:([ `Reused | `Rank_update of int ] -> unit) ->
  golden ->
  element_id:string ->
  Fault.t ->
  (solution, error) result
(** Solve the circuit with the given fault applied to one element,
    reusing the golden factors.  [on_path] reports how the solve was
    served: [`Reused] — the fault does not change the system (e.g. an
    open capacitor) and the golden solution was re-extracted;
    [`Rank_update k] — a rank-[k] SMW re-solve ([k = 0] is an RHS-only
    change, one substitution against the golden factors).  Raises
    [Not_found] for an unknown element and {!Fault.Not_applicable} as
    {!Fault.inject}.  Results match a full re-analysis of the faulted
    netlist to solver tolerance (roundoff for linear circuits, Newton
    tolerance when diodes are present).  A fault that makes the system
    singular is reported as that re-analysis reports it, naming the
    unknown without a pivot. *)

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

(** {1 Device equations}

    Exposed for the transient engine ({!module:Transient}), which shares
    the Newton companion model. *)

val diode_current : Element.diode_params -> float -> float
(** Shockley current at a junction voltage, with overflow limiting. *)

val diode_conductance : Element.diode_params -> float -> float
(** The exact derivative of {!diode_current} (limiter chain rule
    included). *)
