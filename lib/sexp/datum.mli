(** Surface-syntax data for the vscheme reader.

    A {!t} is the parsed form of one textual s-expression, before any
    syntactic analysis.  It carries no heap addresses and no source
    positions; the reader keeps byte offsets and reports a line and
    column in parse errors only. *)

type t =
  | Nil                       (** the empty list, [()] *)
  | Bool of bool              (** [#t] or [#f] *)
  | Int of int                (** exact integer literal *)
  | Real of float             (** inexact real literal *)
  | Char of char              (** character literal, [#\a] *)
  | Str of string             (** string literal *)
  | Sym of string             (** symbol *)
  | Cons of t * t             (** pair; proper and improper lists *)
  | Vec of t array            (** vector literal, [#(...)] *)

val list : t list -> t
(** [list ds] is the proper list holding [ds] in order. *)

val list_opt : t -> t list option
(** [list_opt d] is [Some ds] when [d] is a proper list of [ds], and
    [None] when [d] is improper or not a list. *)

val sym : string -> t
(** [sym s] is [Sym s]. *)

val equal : t -> t -> bool
(** Structural equality, comparing vectors elementwise. *)

val to_string : t -> string
(** Standard external syntax; the output re-reads to an [equal]
    datum. *)
