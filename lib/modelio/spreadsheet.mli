(** Spreadsheet workbooks — the "Excel" of the paper's workflow.

    A workbook is a set of named sheets, each a header-indexed table.  On
    disk a workbook is either a single [.csv] file (one sheet named after
    the file) or a directory of [.csv] files (one sheet per file).  Cell
    accessors parse the notations used in reliability data: percentages
    ("30%" → 30.0), plain numbers, and FIT values. *)

type sheet = { sheet_name : string; table : Csv.table }

type t = { sheets : sheet list }

val of_csv : name:string -> Csv.t -> t
(** Single-sheet workbook; raises [Invalid_argument] on empty CSV. *)

val load : string -> t
(** Load a [.csv] file or a directory of [.csv] files.  Sheet names are
    file basenames without extension.  Raises [Sys_error]. *)

val save : string -> t -> unit
(** Write each sheet as [<dir>/<sheet>.csv]; creates the directory. *)

val sheet : t -> string -> sheet option
(** Case-insensitive sheet lookup. *)

val first_sheet : t -> sheet
(** Raises [Invalid_argument] on a workbook with no sheets. *)

(** {1 Typed cell access} *)

val cell : sheet -> row:int -> column:string -> string option

val number : string -> float option
(** Parses ["42"], ["4.2e1"], ["30%"] (→ 30.0), [" 10 "] and rejects
    everything else. *)
