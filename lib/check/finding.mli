(** Diagnostics shared by the static checkers ([repro check]) and the
    source linter ([tools/lint]).

    A finding locates one violated invariant: the rule that fired, the
    file it fired in, where in that file (a byte offset in a binary
    trace, an event index in a decoded stream, a line/column in
    source), and a human-readable message.  Findings export through
    {!Obs.Json} so both tools have the same machine-readable output
    shape. *)

type severity =
  | Error    (** fails the build / the check *)
  | Warning  (** reported, never fatal *)

type where =
  | Whole                             (** about the file as a whole *)
  | Byte of int                       (** byte offset in a binary file *)
  | Event of int                      (** index in a decoded event stream *)
  | Line of int
  | Pos of { line : int; col : int }  (** source position *)

type t = {
  rule : string;   (** stable rule identifier, e.g. ["trace.kind-bits"] *)
  severity : severity;
  file : string;
  where : where;
  message : string;
}

val v : ?severity:severity -> ?where:where -> rule:string -> file:string -> string -> t
(** [severity] defaults to {!Error}, [where] to {!Whole}. *)

val pp : Format.formatter -> t -> unit
(** One line: [file[:line[:col]]: severity: [rule] message]. *)

val list_to_json : t list -> Obs.Json.t

val is_error : t -> bool
val errors : t list -> t list
val has_errors : t list -> bool
