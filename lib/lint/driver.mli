(** The lint driver: runs the five rule packs (SSAM, block diagram,
    reliability, query, dataflow) over an {!Input.t} and renders the
    diagnostics.

    Pack dispatch goes through {!Exec.scheduled_map} under the
    ["lint.pack"] label, so the adaptive scheduler decides sequential
    vs parallel execution per run; determinism comes from
    its in-order collection — findings are bit-identical at every
    [SAME_JOBS] setting.  When the input has a diagram but no SSAM
    model, the diagram is transformed
    ({!Blockdiag.Transform.to_ssam_model}, with the reliability model
    aggregated on when present) so the SSAM pack always sees the design
    the analysis commands would.  A derived model reports no duplicate
    ids (SSAM001): BLK003 already names each duplicate block. *)

val catalogue : Rule.t list
(** Every registered rule, grouped by pack (SSAM, BLK, REL, QRY, DFA
    ids). *)

val find_rule : string -> Rule.t option
(** Case-insensitive lookup by id. *)

val run :
  ?jobs:int ->
  ?rules:string list ->
  ?categories:Rule.category list ->
  ?min_severity:Rule.severity ->
  Input.t ->
  Rule.diagnostic list
(** All diagnostics, errors first (stable within a severity).  [rules]
    restricts to the given ids (case-insensitive; empty means all);
    [categories] restricts to the given packs (empty means all);
    [min_severity] drops anything below the threshold. *)

val has_errors : Rule.diagnostic list -> bool

val to_text : Rule.diagnostic list -> string
(** One line per diagnostic plus a trailing summary line
    (["3 errors, 1 warning"] / ["no findings"]). *)

val to_json : Rule.diagnostic list -> Modelio.Json.t
(** SARIF-style: [{"version": "2.1.0", "runs": [{"tool": {"driver":
    {"name": "same lint", "rules": [...]}}, "results": [...]}]}] with
    one result per diagnostic, carrying level, message, rule id and the
    physical/logical location when known.  Each rule descriptor carries
    [name], [shortDescription], a [helpUri] (the rule's DESIGN.md
    anchor) and its pack under [properties.category], so SARIF viewers
    can group findings by pack. *)
