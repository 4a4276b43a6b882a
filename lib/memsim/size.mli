(** Human-readable byte counts ("64k", "1m", "1.25m", "17b") — the
    geometry naming shared by {!Sweep.pp_size} and {!Recording.load}
    diagnostics. *)

val pp : Format.formatter -> int -> unit
(** Print a byte count in the shortest exact form. *)

val to_string : int -> string
(** {!pp} to a string. *)
