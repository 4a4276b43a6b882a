(** Minimal JSON tree: just enough to emit and re-read the telemetry
    formats without pulling a dependency into the zero-dep [obs]
    library.

    Emission covers the full type; parsing accepts anything [to_string]
    produces (and ordinary interchange JSON), which is all the
    round-trip tests, [repro check] and the serve protocol and journal
    need. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_buffer : Buffer.t -> t -> unit

val to_string : t -> string
(** Compact single-line encoding (what JSONL wants). *)

val to_pretty_string : t -> string
(** Two-space indented encoding for files meant to be read. *)

val of_string : string -> (t, string) result

(** {1 Accessors} — each returns [None] on a shape mismatch. *)

val member : string -> t -> t option
val to_int : t -> int option
val to_float : t -> float option
val to_str : t -> string option
val to_list : t -> t list option
