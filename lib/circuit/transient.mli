(** Transient (time-domain) analysis by backward Euler.

    The paper's SAME invoked Simulink's [simulate()], a time-domain run;
    the DC operating point of {!module:Dc} is the steady state that the
    failure-injection FMEA compares.  This module provides the full
    time-domain capability: reactive elements get their backward-Euler
    companion models (capacitor: [C/h] conductance with a history current
    source; inductor: [h/L] conductance with its previous current), and
    sources may be driven by waveforms.  The companion circuit is solved
    by {!Dc}: prepared once per run (a circuit without diodes is
    factorised once), re-solved per step under new source values with
    {!Dc}'s Newton loop starting from the previous step's solution.

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
    per time step; other elements ignore their entry.  [gmin], the
    Newton budget and its damping are {!Dc.analyse}'s.  Sample 0 is the
    initial state: with [From_dc], {!Dc.analyse}'s node voltages and
    element currents.  Raises [Invalid_argument] when [dt] or [duration]
    is not positive and finite, or [duration /. dt] is beyond an array's
    length. *)

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
