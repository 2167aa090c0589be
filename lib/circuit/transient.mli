(** Transient (time-domain) analysis by backward Euler.

    The paper's SAME invoked Simulink's [simulate()], a time-domain run;
    the DC operating point of {!module:Dc} is the steady state that the
    failure-injection FMEA compares.  This module provides the full
    time-domain capability: reactive elements get their backward-Euler
    companion models (capacitor: [C/h] conductance with a history current
    source; inductor: [h/L] conductance with its previous current), diodes
    are solved by per-step Newton iteration, and sources may be driven by
    waveforms.

    Initial conditions default to the DC operating point, so an unforced
    simulation stays at steady state (tested); interesting runs override
    source waveforms (steps, sine ripple) or start from zero state. *)

type waveform = float -> float
(** Source value as a function of time (seconds). *)

type result

type initial_state =
  | From_dc  (** start at the DC operating point (default) *)
  | Zero_state  (** capacitors discharged, inductors currentless *)

val simulate :
  ?initial:initial_state ->
  ?waveforms:(string * waveform) list ->
  Netlist.t ->
  dt:float ->
  duration:float ->
  (result, Dc.error) Stdlib.result
(** [waveforms] overrides the value of named [Vsource]/[Isource] elements
    per time step; other elements ignore their entry.  Every node has a
    1e-9 S conductance to ground, as under {!Dc.analyse}, and each step's
    Newton iteration runs at most 200 times.  Raises
    [Invalid_argument] on non-positive [dt] or [duration]. *)

val times : result -> float array
(** Sample instants, [0; dt; ...; duration]. *)

val node_voltage : result -> string -> float array
(** Raises [Not_found] for unknown nodes. *)

val element_current : result -> string -> float array
(** Raises [Not_found] for unknown elements. *)

val sensor_trace : result -> string -> float array
(** Current sensors report amps, voltage sensors volts.  Raises
    [Not_found] for ids that are not sensors. *)

val final_value : float array -> float
(** Last sample; raises [Invalid_argument] on an empty trace. *)

val ripple : float array -> float
(** Peak-to-peak amplitude over the second half of the trace — the
    steady-state ripple after start-up transients settle. *)

val settling_time :
  times:float array -> float array -> tolerance:float -> float option
(** First instant after which the trace stays within [tolerance] of its
    final value; [None] if it never settles. *)
