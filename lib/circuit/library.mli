(** The supported block catalogue — SAME's Simscape-Foundation coverage
    (evaluation RQ2).

    Each entry says whether a block type is analysed natively, needs the
    paper's "subsystem + annotation" work-around, or is unsupported, and
    lists its catalogue failure modes (used when a reliability model has
    no entry for a component). *)

type support = Native | Workaround of string | Unsupported

type catalogue_failure_mode = {
  cfm_name : string;
  cfm_fault : Fault.t;
  cfm_distribution_pct : float;
}

type block_info = {
  block_type : string;
  support : support;
  description : string;
  failure_modes : catalogue_failure_mode list;
}

val catalogue : block_info list
(** The Simscape-Foundation-style electrical catalogue plus the annotated
    subsystems used in the paper's case studies (MCU, sensors). *)

val aliases : (string * string) list
(** Other names of catalogue types, lowercase: (["mcu"],
    ["microcontroller"]), (["battery"], ["vsource"])... *)

val find : string -> block_info option
(** Case-insensitive by [block_type]; also accepts common aliases
    (["mcu"], ["mc"] → microcontroller; ["dc source"] → vsource...) and
    ignores surrounding spaces.  One hashtable probe over the catalogue
    names and aliases; a second, on the trimmed lowercase name, when the
    name is not spelt as the catalogue spells it. *)

val canonical : string -> string
(** The catalogue [block_type] {!find} resolves a name to; a name it does
    not know, trimmed and lowercased. *)

type coverage_report = {
  native : string list;
  via_workaround : string list;
  unsupported : string list;
  coverage_pct : float;  (** native + workaround over total queried *)
}

val coverage : string list -> coverage_report
(** Classify the block types used by a design (duplicates are collapsed). *)

val pp_coverage : Format.formatter -> coverage_report -> unit
