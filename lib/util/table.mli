(** ASCII table rendering for experiment reports.

    The bench harness prints paper-style tables (Table 1, Figure 7 series)
    to stdout; this module handles column sizing and alignment so every
    experiment's output is uniform and diffable. *)

type align = Left | Right | Center

type t

val create : ?title:string -> header:string list -> unit -> t
(** New table with the given column headers. *)

val add_row : t -> string list -> unit
(** Append a row.  @raise Invalid_argument if the arity differs from the
    header's. *)

val render : ?align:align list -> t -> string
(** Render with box-drawing in plain ASCII.  [align] defaults to
    left-aligning the first column and right-aligning the rest, the usual
    layout for a label column followed by numeric columns. *)

val print : ?align:align list -> t -> unit
(** [render] to stdout followed by a newline. *)

val fmt_float : ?decimals:int -> float -> string
(** Fixed-point formatting helper (default 2 decimals). *)

val fmt_percent : ?decimals:int -> float -> string
(** [fmt_percent 0.26] is ["26.0%"] with default decimals = 1. *)

val fmt_signed_percent : ?decimals:int -> float -> string
(** Signed percent for values already in percent units:
    [fmt_signed_percent 3.14] is ["+3.1%"], [fmt_signed_percent (-2.0)]
    is ["-2.0%"].  Values that round to zero — including negative zero
    and tiny regressions — print as ["0.0%"], so reports never show the
    confusing ["-0.0%"]. *)
