(** The evaluation subjects of Sec. VI.

    The paper's two industrial systems are under IP and cannot be
    published; these generators build synthetic stand-ins with the same
    published characteristics — System A, a sensor power supply with
    {b 102} design elements; System B, the main control unit (hardware
    and software) of an autonomous underwater vehicle with {b 230}
    elements — using the same block vocabulary as the case study, so they
    exercise the same analysis paths.  Element counts are exact
    ({!Blockdiag.Diagram.block_count}) and asserted by tests. *)

type subject = {
  subject_name : string;
  diagram : Blockdiag.Diagram.t;
  reliability : Reliability.Reliability_model.t;
  safety_mechanisms : Reliability.Sm_model.t;
  target : Ssam.Requirement.integrity_level;
}

val system_a : subject
(** Sensor power supply, 102 elements: dual-stage filtered rail with
    protection, redundancy on the sense path and monitor test points. *)

val system_b : subject
(** AUV main control unit, 230 elements: power conditioning + MCU +
    sensor/actuator loads on the hardware side; a software task pipeline
    (drivers → fusion → navigation → control → actuation) on the software
    side. *)

val element_count : subject -> int

val analysable : subject -> Blockdiag.To_netlist.result

val automated_fmea : subject -> Fmea.Table.t
(** The SAME route: netlist extraction + injection FMEA with the subject's
    reliability model. *)

val ssam_model : subject -> Ssam.Model.t
(** Transformed + reliability-aggregated SSAM model of the subject. *)

val software_fmea : subject -> Fmea.Table.t
(** Algorithm 1 on the subject's software task pipeline (the
    sensor-driver → fusion → navigation → guidance → control → allocation
    → actuation chain): tasks on every path of the control function are
    single points; redundant sensor drivers are not.  Raises
    [Invalid_argument] for subjects without a software subsystem
    (System A). *)
