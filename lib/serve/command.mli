(** The six analyses `same` runs for the command line and for the daemon
    alike — fmea, fmeda, fta, assess, diagnose and lint — written once.

    A {!request} is the typed form of one analysis and its options.  The
    CLI builds it from argv; the daemon builds it from the wire's string
    parameters with {!of_params}.  {!run} parses the models, calls the
    library and renders the report.  Its reply splits the text into what
    the CLI prints on stdout ([out]) and on stderr ([err]); the daemon's
    [output] field is [err ^ out].  So `same X args` and
    `same X args --connect SOCKET` answer with the same bytes and the
    same exit code. *)

(** {1 Models} *)

type source =
  | Path of string
      (** a file; a reliability or safety-mechanism model may also be a
          directory of CSV sheets.  Errors name the path. *)
  | Text of { name : string; text : string }
      (** model text sent inline to the daemon.  Errors name [name]. *)

type models = {
  diagram : source option;
      (** the block diagram, or for [assess] an Open-PSA tree; only
          [lint] runs without one *)
  reliability : source option;  (** [None]: the paper's Table II *)
  sm : source option;  (** [None]: the built-in extended catalogue *)
  queries : source list;  (** query sources to typecheck ([lint] only) *)
}

val parse_diagram : source -> (Blockdiag.Diagram.t, string) result

val parse_reliability :
  source option -> (Reliability.Reliability_model.t, string) result

val parse_sm : source option -> (Reliability.Sm_model.t, string) result

val converting : model:string -> (unit -> 'a) -> ('a, string) result
(** [f ()], with what netlist conversion ({!Blockdiag.To_netlist.convert})
    raises on a diagram that parsed as [Error "<model>: ..."]: a
    two-terminal block of an unknown type
    ({!Blockdiag.To_netlist.Unsupported_block}) and a value or id the
    circuit rejects ([Invalid_argument], such as a non-positive
    resistance).  Every analysis that converts a diagram runs under it,
    so the CLI prints ["error: <model>: ..."] and exits 1, and the daemon
    answers an error. *)

(** {1 Requests} *)

type request =
  | Fmea of {
      route : Decisive.Api.analysis_route;
      exclude : string list;
      monitored : string list;  (** [[]]: every sensor *)
      csv : string option;  (** local: also write the table as CSV *)
      strict : bool;  (** local: lint the inputs first, abort on errors *)
    }
  | Fmeda of {
      target : Ssam.Requirement.integrity_level;
      exclude : string list;
      monitored : string list;
      csv : string option;  (** local *)
      strict : bool;  (** local *)
    }
  | Fta of {
      max_cardinality : int option;
      exports : ([ `Report | `Dot | `Open_psa ] * string) list;
          (** local: files to write, in order, after the report *)
    }
  | Assess of {
      from : [ `Diagram | `Ssam | `Open_psa ];
          (** local unless [`Diagram]: how to read the model *)
      config : Assess.Mc.config;
      check : bool;
      format : [ `Text | `Json ];
    }
  | Diagnose of {
      output : string;
      exclude : string list;
      monitored : string list;
      structural : bool;
      format : [ `Text | `Json | `Sarif ];
    }
  | Lint of {
      rules : string list;  (** rule ids; [[]]: all *)
      categories : string list;  (** rule-pack names; [[]]: all *)
      severity : Lint.Rule.severity option;
      format : [ `Text | `Json ];
      exclude : string list;
      monitored : string list;
    }
(** The fields marked local have no wire parameter: the daemon never
    writes a file, and the CLI refuses them under [--connect]. *)

val routes : (string * Decisive.Api.analysis_route) list
val methods : (string * Assess.Mc.sampling) list
(** The names of the FMEA routes and the Monte-Carlo sampling methods,
    on the command line and on the wire. *)

val analysis : request -> Protocol.analysis

val to_params : request -> (string * string) list
(** The wire parameters of the request's non-local fields.  Defaults
    and empty lists are left out. *)

val of_params :
  Protocol.analysis -> (string * string) list -> (request, string) result
(** Reads the parameters {!to_params} writes; an empty value means
    absent, unknown keys are ignored and local fields take their
    defaults.  A non-numeric [trials], [seed], [max_cardinality],
    [mission_hours] or [rel_precision], an unknown [route], [target],
    [method], [format], [severity] or fta [engine] (only [auto] and
    [bdd] are known), a [check] or [structural] other than
    [true]/[false], and a diagnose without [output] are [Error]. *)

(** {1 Running} *)

type reply = {
  out : string;  (** the report: stdout *)
  err : string;  (** warnings and ["error: ..."] lines: stderr *)
  code : int;  (** the exit code *)
}

val run :
  ?engine:Engine.Pipeline.t -> ?wall_clock:bool -> models -> request -> reply
(** Parse, analyse, render.  fmea and fmeda run on [engine] (default: a
    fresh {!Engine.Pipeline.t} per call); a warm one serves repeated
    inputs from its memos with the same result.  [wall_clock] (default
    [false]) adds assess's elapsed time and Mtrials/s to the text report
    and the [elapsed_s] and [trials_per_sec] keys to the JSON one; only
    the CLI sets it, so daemon replies are a function of the request and
    can be cached. *)

val analyse : engine:Engine.Pipeline.t -> Protocol.analyse -> string * int
(** The daemon's answer to an [analyse] request: [err ^ out] and the
    exit code; malformed parameters answer ["error: ..."] with exit
    1. *)

val to_analyse : models -> request -> (Protocol.analyse, string) result
(** The [analyse] request the CLI sends under [--connect]: the model
    files read into inline texts, and for [lint] the file names as
    labels.  [Error] when a file cannot be read.  The models must have a
    diagram and at most one query. *)

(** {1 Shared pieces} *)

val table_report : Fmea.Table.t -> string
(** The FMEA report: the table, then the metrics breakdown. *)

val strict_findings :
  ?diagram:string * Blockdiag.Diagram.t ->
  ?reliability:string option * Reliability.Reliability_model.t ->
  ?sm:string option * Reliability.Sm_model.t ->
  exclude:string list ->
  monitored:string list ->
  unit ->
  string option
(** The [--strict] gate: lint exactly the inputs the analysis is about
    to consume.  [Some text] (the findings and the closing
    ["error: ..."] line) when lint reports an error. *)
