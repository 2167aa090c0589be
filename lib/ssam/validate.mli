(** Well-formedness validation for SSAM models.

    SAME runs these checks before any automated analysis; analysis modules
    assume a model whose {!findings} include no errors.

    Each check is a named {e rule} ([SSAM001], [SSAM002], ...) so the lint
    driver ([Lint], the [same lint] subcommand) can filter, document and
    report them individually.  This module is the single source of truth
    for the SSAM rule pack: {!findings} returns rule-tagged results. *)

type severity = Error | Warning [@@deriving eq, show]

type finding = {
  f_rule : string;  (** rule id, e.g. ["SSAM003"] *)
  f_severity : severity;
  f_element : Base.id;  (** offending element *)
  f_message : string;
  f_hint : string option;  (** how to fix, when a generic hint exists *)
}
[@@deriving eq, show]

val rules : (string * severity * string) list
(** The SSAM rule catalogue as (id, severity, title):

    - [SSAM001] duplicate element id;
    - [SSAM002] dangling reference (citations, package-interface exports,
      hazard mitigation links, requirement relationships, MBSA package
      references and traces);
    - [SSAM003] malformed relationship (dangling endpoint, endpoint not a
      component, IO node not on the endpoint component, endpoint outside
      the enclosing component — the last one a warning);
    - [SSAM004] safety mechanism covers an id that is not a failure mode
      of its component;
    - [SSAM005] failure-mode hazard link that is dangling or names a
      non-situation;
    - [SSAM006] numeric range violation (negative FIT, distribution or
      coverage outside [0,100], negative SM cost, inverted IO limits,
      hazard probability outside [0,1]);
    - [SSAM007] failure-mode distributions of a component do not sum to
      ≈100 % (warning);
    - [SSAM008] component unreachable: no relationship connects it while
      the rest of its package is wired (warning);
    - [SSAM009] component declares failure modes but has zero FIT — no
      FIT row was aggregated onto it (warning);
    - [SSAM010] component carries an integrity target but no safety
      requirement is allocated to it (warning). *)

val findings : Model.t -> finding list
(** All findings, errors first (each group in model order). *)

val pp_finding : Format.formatter -> finding -> unit

val is_valid : Model.t -> bool
(** No [Error]-severity finding. *)
