(** The serve wire protocol: length-prefixed JSON frames and the
    request vocabulary.

    A frame is a 4-byte big-endian payload length followed by that
    many bytes of compact JSON; frames above 16 MB are rejected on
    both sides.  Requests are objects with an ["op"]
    field; replies are objects with an ["ok"] boolean — [false]
    carries an ["error"] message plus, when the failure belongs to a
    job, its ["job"] id and manifest ["name"], so a client never has
    to guess which submission an error is about. *)

exception Closed
(** Raised by the write path when the peer has gone away. *)

val write_frame : Unix.file_descr -> Obs.Json.t -> unit
(** @raise Closed on EOF mid-write, [Unix.Unix_error] on I/O errors,
    [Invalid_argument] on an oversized payload. *)

val read_frame :
  Unix.file_descr ->
  (Obs.Json.t, [ `Closed | `Error of string ]) result
(** One frame; [`Closed] on clean EOF before or inside a frame,
    [`Error] on malformed length, oversized frame, unparseable JSON,
    or an I/O error. *)

(** {1 Requests} *)

type request =
  | Submit of { run_text : string; wait : bool }
      (** [run_text] is one [(run ...)] manifest entry as sexp text. *)
  | Status of int
  | Result of int
  | Cancel of int
  | Stats
  | Shutdown of { drain : bool }
  | Ping

val request_to_json : request -> Obs.Json.t
val request_of_json : Obs.Json.t -> (request, string) result

(** {1 Replies} *)

val ok_reply : (string * Obs.Json.t) list -> Obs.Json.t
val error_reply : ?job:int -> ?name:string -> string -> Obs.Json.t
