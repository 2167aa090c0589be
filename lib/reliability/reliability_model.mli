(** The component reliability model (DECISIVE Step 3, Table II).

    Maps a component *type* to its FIT and failure modes with probability
    distributions.  Loaded from spreadsheets (the paper's Excel route), from
    JSON, or built programmatically; entries can also fall back to the
    block catalogue ({!Circuit.Library}). *)

type failure_mode = {
  fm_name : string;
  distribution_pct : float;
  fault : Circuit.Fault.t option;
      (** how to inject this mode into a circuit; [None] means the injection
          FMEA must warn and skip (Algorithm 1's warning branch). *)
  loss_of_function : bool;
      (** whether Algorithm 1 treats this mode as path-breaking. *)
}
[@@deriving eq, show]

type entry = {
  component_type : string;
  fit : Fit.t;
  failure_modes : failure_mode list;
}
[@@deriving eq, show]

type t

val empty : t

val add : t -> entry -> t
(** Replaces any previous entry for the same (case-insensitive) type. *)

val of_entries : entry list -> t

val find : t -> string -> entry option
(** Case-insensitive; resolves {!Circuit.Library} aliases (["MC"] →
    ["microcontroller"]) before lookup. *)

val entries : t -> entry list

val table_ii : t
(** The paper's Table II: Diode 10 FIT (Open 30 / Short 70), Capacitor 2,
    Inductor 15, MC 300 (RAM Failure 100). *)

exception Format_error of string

val of_spreadsheet : Modelio.Spreadsheet.t -> t
(** Expects columns Component, FIT, Failure_Mode, Distribution; the
    Component and FIT cells may be left blank on continuation rows, as in
    the paper's Table II layout.  Failure modes are mapped to faults with
    {!Circuit.Fault.of_failure_mode_name}.  Raises {!Format_error}, also
    on a FIT or distribution that is not finite. *)

val of_json : Modelio.Json.t -> t
(** [{"components": [{"type": ..., "fit": ..., "failure_modes":
    [{"name":..., "distribution": ..., "loss_of_function": ...}]}]}].
    Raises {!Format_error}. *)

val to_spreadsheet : t -> Modelio.Spreadsheet.t
(** Numbers are written with {!Modelio.Float_text.to_string}, so
    {!of_spreadsheet} reads every FIT and distribution back bit for bit
    (failure modes whose fault and loss of function follow from their
    names, as {!of_spreadsheet} derives them). *)
