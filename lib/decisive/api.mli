(** SAME's high-level facade: one-call versions of the DECISIVE steps that
    the CLI, the examples and downstream users drive.

    Lower-level control lives in the individual libraries ({!Fmea},
    {!Optimize}, {!Assurance}, ...); this module wires them together the
    way Fig. 10 wires SAME's components. *)

type analysis_route =
  | Via_injection  (** circuit simulation + failure injection (Sec. IV-D1) *)
  | Via_ssam_paths  (** Algorithm 1 on the transformed SSAM model *)
  | Via_fta  (** HiP-HOPS-style: fault-tree generation + cut sets *)

val functional_root :
  reliability:Reliability.Reliability_model.t ->
  Blockdiag.Diagram.t ->
  Ssam.Architecture.component
(** The functional abstraction the SSAM/FTA routes analyse: the diagram
    transformed to SSAM (reliability aggregated), wrapped in a composite
    whose input boundary is the supply blocks and whose output boundary
    is the consumer blocks, with ground edges dropped — the power/function
    flow the paper's Fig. 12 SSAM twin depicts. *)

val analyse :
  ?engine:Engine.Pipeline.t ->
  ?previous:Engine.Pipeline.previous ->
  ?route:analysis_route ->
  ?exclude:string list ->
  ?monitored_sensors:string list ->
  Blockdiag.Diagram.t ->
  Reliability.Reliability_model.t ->
  Fmea.Table.t
(** DECISIVE Step 4a on a block diagram (default route: injection).  The
    SSAM routes transform the diagram first (Step 3 aggregation included).
    Raises {!Fmea.Injection_fmea.Golden_run_failed} when the design does
    not simulate, {!Fta.From_ssam.No_paths} on the FTA route for designs
    without input→output paths.

    Every route runs on the incremental engine: [engine] (default: a
    fresh {!Engine.Pipeline.t}) memoises results by input fingerprint,
    and on the injection route [previous] enables row-level reuse after a
    component-local edit (see {!Engine.Pipeline.injection_fmea}). *)

type refinement = {
  refined_table : Fmea.Table.t;
  chosen : Optimize.Search.candidate option;
  pareto_front : Optimize.Search.candidate list;
  achieved_spfm : float;
  meets_target : bool;
}

val refine :
  ?engine:Engine.Pipeline.t ->
  target:Ssam.Requirement.integrity_level ->
  ?component_types:(string * string) list ->
  Fmea.Table.t ->
  Reliability.Sm_model.t ->
  refinement
(** DECISIVE Step 4b: search SM deployments for the target.  [engine]
    (default: a fresh one) memoises the search result by (table,
    SM-model, target) fingerprint.  [component_types] maps component
    ids to catalogue types (default: the ids themselves). *)

val refine_design :
  ?engine:Engine.Pipeline.t ->
  target:Ssam.Requirement.integrity_level ->
  Blockdiag.Diagram.t ->
  Fmea.Table.t ->
  Reliability.Sm_model.t ->
  refinement
(** {!refine} of a table analysed from the diagram, with the component
    types of the engine's memoised {!Engine.Pipeline.convert}. *)

val fmeda :
  ?engine:Engine.Pipeline.t ->
  target:Ssam.Requirement.integrity_level ->
  ?exclude:string list ->
  ?monitored_sensors:string list ->
  Blockdiag.Diagram.t ->
  Reliability.Reliability_model.t ->
  Reliability.Sm_model.t ->
  refinement
(** Steps 4a and 4b on one engine: {!refine_design} of the injection
    FMEA table. *)

val refinement_text :
  target:Ssam.Requirement.integrity_level -> refinement -> string
(** The end of the [same fmeda] report, printed by the CLI and returned
    by the daemon after the FMEDA table: the verdict line, then one
    [deploy <sm> on <component>/<failure mode>] line per chosen
    deployment, or [no deployment meets the target]. *)

val run_decisive :
  ?engine:Engine.Pipeline.t ->
  name:string ->
  target:Ssam.Requirement.integrity_level ->
  ?exclude:string list ->
  ?monitored_sensors:string list ->
  Blockdiag.Diagram.t ->
  Reliability.Reliability_model.t ->
  Reliability.Sm_model.t ->
  Process.t * Fmea.Table.t * Fmea.Fmeda.deployment list
(** One pass of the loop of Fig. 1 on one engine: plan → design →
    reliability → evaluate → refine (when the FMEA misses the target) →
    safety concept, recording every artefact in the returned
    {!Process.t}.  Also returns the final table and the deployments the
    refinement chose ([[]] when none ran or none meets the target).  An
    unmet target leaves the process without Step 5
    ({!Process.is_complete} is false): iterating needs a changed design,
    which only the caller can supply. *)

val assurance_case_for :
  system:string ->
  target:Ssam.Requirement.integrity_level ->
  fmeda_csv:string ->
  Assurance.Sacm.case
(** The Sec. V-C integration: a goal structure whose solution cites the
    FMEDA spreadsheet at [fmeda_csv] with an executable SPFM acceptance
    query (re-evaluating the case re-runs the query against the current
    file). *)

val export_fmeda : path:string -> Fmea.Table.t -> unit
(** Write the Excel-style FMEDA table (CSV) — "an Excel-based FMEA table
    is always produced". *)

val spfm_query : target:Ssam.Requirement.integrity_level -> string
(** The acceptance query {!assurance_case_for} embeds: recomputes SPFM
    from the FMEDA rows and compares it to the target. *)
