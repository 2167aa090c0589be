(** Multi-language strings (SSAM Base module, Fig. 2).

    A [LangString] pairs textual content with an IETF-style language tag so
    that SSAM models can carry names and descriptions in several languages
    at once. *)

type t = { value : string; lang : string } [@@deriving eq, ord, show]

val v : ?lang:string -> string -> t
(** [v s] is [s] tagged with the default language, ["en"]. *)

type set = t list [@@deriving eq, ord, show]
(** A set of translations of the same text. *)

val preferred : ?lang:string -> set -> string
(** [preferred set] is the value for [lang] (default ["en"]), falling back
    to the first entry, falling back to [""] for the empty set. *)
