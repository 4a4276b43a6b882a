(** Record-shaped s-expressions for manifests and fixtures.

    Both file formats are lists of [(key value ...)] fields under a
    tagged head, e.g. [(golden-fixture (version 1) (run ...) ...)].
    This module is the shared glue: building fields, destructuring
    them with located errors, and reading/writing whole files through
    {!Sexp.Parser}. *)

exception Parse_error of string
(** Raised by every reader below; the message names the file and the
    offending field. *)

(** {1 Building} *)

val field : string -> Sexp.Datum.t list -> Sexp.Datum.t
(** [field "refs" [Int 3]] is [(refs 3)]. *)

val int : string -> int -> Sexp.Datum.t
val str : string -> string -> Sexp.Datum.t
val real : string -> float -> Sexp.Datum.t
val int_list : string -> int list -> Sexp.Datum.t

(** {1 Destructuring} *)

val fields : file:string -> tag:string -> Sexp.Datum.t -> (string * Sexp.Datum.t list) list
(** Match [(tag (k1 ...) (k2 ...) ...)] and return the fields in
    order.  @raise Parse_error when the head is not [tag] or a field
    is not a keyed list. *)

val get : file:string -> (string * Sexp.Datum.t list) list -> string -> Sexp.Datum.t list
(** The body of the first field with the given key.
    @raise Parse_error when absent. *)

val get_opt : (string * Sexp.Datum.t list) list -> string -> Sexp.Datum.t list option

val get_int : file:string -> (string * Sexp.Datum.t list) list -> string -> int
val get_str : file:string -> (string * Sexp.Datum.t list) list -> string -> string
val get_real : file:string -> (string * Sexp.Datum.t list) list -> string -> float
val get_int_list : file:string -> (string * Sexp.Datum.t list) list -> string -> int list

(** {1 Files} *)

val write_file : string -> header:string -> Sexp.Datum.t -> unit
(** Write one datum, atomically (temp file + rename), preceded by a
    [;;]-comment header line. *)

val read_file : string -> Sexp.Datum.t
(** Parse exactly one datum.
    @raise Parse_error on I/O or syntax errors (never raises
    [Sys_error] or {!Sexp.Parser.Error} directly). *)
