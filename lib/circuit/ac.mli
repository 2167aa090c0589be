(** AC small-signal (frequency-domain) analysis.

    Linearises the circuit about its DC operating point — diodes become
    their small-signal conductances, capacitors [jωC], inductors
    [1/(jωL)] — and solves the complex MNA system with one source driven
    by a unit phasor.  The result is the transfer function from that
    source to every node and sensor: Bode data, filter cutoffs, ripple
    rejection — the frequency-domain view of what {!Transient} shows in
    time. *)

type point = {
  frequency_hz : float;
  magnitude : float;  (** |H| *)
  magnitude_db : float;  (** 20 log10 |H| *)
  phase_deg : float;
}

type sweep

type prepared
(** A netlist readied for repeated sweeps: {!Dc.factorise}'s
    operating-point matrix (unknown numbering, resistive devices, diode
    small-signal conductances, source branches, gmin) is the real part
    of the system, with the unit stimulus on the right.  Each frequency
    then copies that matrix and adds only the reactive entries. *)

val prepare :
  ?gmin:float -> source:string -> Netlist.t -> (prepared, Dc.error) result
(** [source] names the [Vsource]/[Isource] carrying the unit AC stimulus
    (its DC value still sets the operating point).  Raises
    [Invalid_argument] when [source] is missing or not a source.  A
    singular system is reported as {!Dc} reports it. *)

val solve : prepared -> frequencies_hz:float list -> (sweep, Dc.error) result
(** Sweep the prepared system.  Raises [Invalid_argument] when a
    frequency is not positive and finite. *)

val analyse :
  ?gmin:float ->
  source:string ->
  Netlist.t ->
  frequencies_hz:float list ->
  (sweep, Dc.error) result
(** [prepare] followed by [solve]; kept for single-sweep callers.
    Raises [Invalid_argument] as both halves do. *)

val node_response : sweep -> string -> point list
(** Transfer function to a node voltage.  Raises [Not_found]. *)

val sensor_response : sweep -> string -> point list
(** Transfer function to a sensor reading (amps for current sensors,
    volts for voltage sensors).  Raises [Not_found]. *)

val cutoff_hz : point list -> float option
(** First frequency at which the magnitude falls 3 dB below the
    lowest-frequency point; [None] if it never does within the sweep. *)

val log_space : from_hz:float -> to_hz:float -> points:int -> float list
(** Logarithmically spaced frequencies, inclusive of both ends.  Raises
    [Invalid_argument] unless [0 < from_hz < to_hz], both finite, and
    [points >= 2]. *)
