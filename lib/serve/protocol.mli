(** The `same serve` wire protocol: newline-delimited JSON over a Unix
    domain socket.

    Each request is one compact JSON object on one line; each response is
    one compact JSON object on one line (the printer escapes embedded
    newlines, so framing never splits a value).  Requests are
    {e content-addressed}: {!fingerprint} hashes everything that can
    change an analysis answer — the analysis kind, the full model texts
    and every parameter — and the server uses that hash for single-flight
    coalescing and for the shared result cache.  Two tenants posting the
    same models get the same hash, and therefore share one computation. *)

type analysis = Fmea | Fmeda | Fta | Assess | Diagnose | Lint

val analysis_to_string : analysis -> string

type analyse = {
  a_analysis : analysis;
  a_diagram : string;  (** block-diagram model, [.bd] text format *)
  a_reliability : string option;  (** reliability model, CSV text *)
  a_sm : string option;  (** safety-mechanism model, CSV text *)
  a_params : (string * string) list;
      (** analysis-specific knobs (sorted canonically by {!fingerprint}),
          read by {!Command.of_params}: [exclude], [monitored], [rules],
          [category] (comma-separated), [route], [target],
          [max_cardinality], [engine], [mission_hours], [trials],
          [rel_precision], [method], [seed], [check], [output],
          [structural], [severity], [format]; and lint's [query] text
          and the [name], [rname], [sname], [qname] labels *)
}

type request =
  | Ping
  | Stats
  | Shutdown
  | Analyse of analyse
  | Open_session of {
      o_diagram : string;
      o_reliability : string option;
      o_params : (string * string) list;
    }
  | Edit of {
      e_session : string;
      e_diagram : string option;
      e_reliability : string option;
    }
  | Close_session of string

val request_to_json : request -> Modelio.Json.t

val request_of_json : Modelio.Json.t -> (request, string) result

val fingerprint : analyse -> Engine.Fingerprint.t
(** Content hash of an analysis request: kind, model texts and
    canonically-ordered parameters.  Equal fingerprints get coalesced
    in flight and share cache entries across sessions and tenants. *)

(** {1 Responses} *)

val ok : (string * Modelio.Json.t) list -> Modelio.Json.t
(** [{"ok": true, ...fields}] *)

val error : string -> Modelio.Json.t
(** [{"ok": false, "error": msg}] *)

(** {1 Framing} *)

val read_frame : in_channel -> string option
(** One line (without the terminator); [None] at end of stream. *)

val write_frame : out_channel -> string -> unit
(** Write the line, the ['\n'] terminator, and flush.  Raises
    [Invalid_argument] if the payload itself contains a newline. *)
