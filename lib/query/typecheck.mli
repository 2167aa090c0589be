(** Static type-and-arity checker for the query language.

    Extraction constraints (the paper's EOL scripts) used to fail only at
    evaluation time, with a {!Interp.Runtime_error} raised from deep
    inside an FMEA run.  This pass walks the {!Ast} first and reports —
    without evaluating anything — the errors that are decidable
    statically:

    - unknown identifiers (variables never declared and not bound by the
      caller's model environment);
    - unknown built-in methods, and methods called on a receiver whose
      inferred type cannot have them (e.g. [1.trim()]);
    - wrong arity for every built-in in the {!Interp} catalogue,
      including lambda-vs-positional argument misuse;
    - operator type mismatches ([true - 1], ['a' < 1], indexing a
      number...).

    Inference is optimistic: model data enters as {!Any} and anything
    involving {!Any} is accepted (the checker never false-positives on
    data-dependent shapes — missing record fields, for instance, remain a
    runtime concern).  A program accepted with a fully concrete typing
    therefore never raises a {!Interp.Runtime_error} for an
    unknown-method, unknown-identifier or arity reason. *)

type ty =
  | Num
  | Str
  | Bool
  | Null
  | Seq of ty
  | Record
  | Any  (** unknown/model-provided — compatible with everything *)

type error = {
  offset : int option;  (** byte offset of the offending node, if known *)
  pos : Pos.t option;  (** line:column, when the source text was given *)
  message : string;
}

val pp_error : Format.formatter -> error -> unit
(** ["3:14: select expects a single lambda argument (x | expr)"] — the
    position prefix is omitted when unknown. *)

type arity =
  | Lambda  (** exactly one [x | expr] argument *)
  | Fixed of int  (** [n] positional arguments *)

val builtins : (string * string * arity) list
(** The full built-in catalogue as (receiver class, method, arity) — the
    receiver class is ["Seq"], ["Str"], ["Num"] or ["Record"].  Tests
    iterate this to cover every method. *)

val check_source : ?env:string list -> string -> error list
(** All static errors of the parsed source, in source order.  [env] lists
    the identifiers the caller will bind at evaluation time (model roots).
    Lex and parse failures are returned as a single-element error list
    rather than raised. *)
