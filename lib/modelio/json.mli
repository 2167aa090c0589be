(** A small JSON parser and printer (no external dependency).

    Covers the JSON the tool federates: objects, arrays, strings with
    escapes (including [\uXXXX] encoded to UTF-8), numbers, booleans and
    null. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Object of (string * t) list
[@@deriving eq, show]

exception Parse_error of { pos : int; message : string }

val parse : string -> t
(** Raises {!Parse_error} on malformed input or trailing garbage; [pos]
    is the byte offset where parsing stopped (the end of the input for
    an unterminated string or a truncated escape).  A string's bytes are
    copied a run at a time: one [String.sub] for a string without
    escapes, one [Buffer.add_substring] per run between escapes. *)

val parse_file : string -> t

val to_string : ?indent:int -> t -> string
(** [indent] > 0 pretty-prints; default 0 is compact.  Strings escape the
    quote, the backslash and the bytes below 0x20 ([\n], [\r], [\t],
    else [\u00XX]); every other byte, invalid UTF-8 included, is written
    as is, a run at a time.  A whole number below 1e15 in magnitude is
    written as an integer ([-0] for -0.0), any other number with 17
    significant digits, so {!parse} reads every finite number back bit
    for bit. *)

val write_file : ?indent:int -> string -> t -> unit

(** {1 Accessors} *)

val member : string -> t -> t option
(** Object field lookup; [None] for non-objects. *)

val path : string list -> t -> t option
(** Nested {!member}. *)

val to_float : t -> float option
(** [Number]; also accepts numeric [String]s. *)

val to_str : t -> string option

val to_list : t -> t list option

val to_bool : t -> bool option
