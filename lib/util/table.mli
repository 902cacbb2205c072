(** Plain-text table rendering for experiment reports.

    The benchmark harness prints each reproduced paper table/figure as an
    aligned ASCII table; this module centralizes the layout logic. *)

type align = Left | Right

(** A table: a header row plus data rows. Rows shorter than the header are
    padded with empty cells. *)
type t

(** [create ~columns] starts a table; each column is [(title, alignment)]. *)
val create : columns:(string * align) list -> t

(** [add_row t cells] appends a data row. *)
val add_row : t -> string list -> unit

(** [add_separator t] appends a horizontal rule between data rows. *)
val add_separator : t -> unit

(** [render t] lays the table out with box-drawing rules. *)
val render : t -> string

val pp : Format.formatter -> t -> unit

(** {1 Structured access and alternative renderings}

    These views drive the [--format {text,json,csv}] front end: every
    report is a {!t}, so one renderer per format covers them all. *)

(** [columns t] — the column titles, in order. *)
val columns : t -> string list

(** [row_cells t] — the data rows in insertion order, separators
    dropped. *)
val row_cells : t -> string list list

(** [render_csv t] — RFC-4180 CSV: a header line then one line per data
    row; fields containing commas, quotes or newlines are quoted. *)
val render_csv : t -> string

(** [to_json t] — an array of objects, one per data row, keyed by column
    title. Cells remain strings: the table layer formats values, it does
    not retain the numbers behind them. *)
val to_json : t -> Json.t

(** [cell_float ?decimals v] formats a float cell ([decimals] defaults
    to 1). *)
val cell_float : ?decimals:int -> float -> string

(** [cell_pct ?decimals v] formats [v] (already in percent) with a [%]
    suffix. *)
val cell_pct : ?decimals:int -> float -> string
