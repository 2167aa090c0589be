(** Analysis execution behind the daemon: parse the request's inline
    model texts, run the same library calls the CLI would, and render the
    CLI's (deterministic) text output.

    Every handler returns [(output, exit_code)] with the convention of
    the `same` CLI: analysis findings and verdicts land in [output],
    model/parameter problems render as ["error: ..."] with a non-zero
    exit.  Outputs never include wall-clock measurements, so a response
    is bit-identical across [SAME_JOBS] settings and cacheable by request
    fingerprint. *)

val analyse : engine:Engine.Pipeline.t -> Protocol.analyse -> string * int
(** For [Fta], the [engine] parameter may be absent, empty, ["auto"] or
    ["bdd"] (synonyms); any other value is the reply
    [error: unknown engine "<value>" (expected auto or bdd)] with exit
    1. *)

val table_report : Fmea.Table.t -> string
(** The CLI's FMEA report: the table plus the metrics breakdown. *)

(** {1 Shared model parsing (also used for sessions)} *)

val parse_diagram : string -> (Blockdiag.Diagram.t, string) result

val parse_reliability :
  string option -> (Reliability.Reliability_model.t, string) result
(** [None] is the paper's Table II default, like the CLI. *)

val parse_sm : string option -> (Reliability.Sm_model.t, string) result

val injection_options :
  (string * string) list -> Fmea.Injection_fmea.options
(** [exclude]/[monitored] comma-separated params to injection options. *)

val param : (string * string) list -> string -> string option

val list_param : (string * string) list -> string -> string list
(** Comma-separated, trimmed, empties dropped. *)
