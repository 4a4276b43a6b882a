(** Client side of the {!Proto} frame protocol. *)

type conn

val connect_unix : string -> conn
(** @raise Unix.Unix_error when the daemon is not listening. *)

val close : conn -> unit

val request : conn -> Proto.request -> (Obs.Json.t, string) result
(** One round trip.  [Ok] replies carry the daemon's fields; [Error]
    is the daemon's message, prefixed with the job id when it named
    one. *)

val stream : conn -> (Obs.Json.t -> unit) -> unit
(** After a successful [Subscribe] request: deliver every further
    frame until the daemon closes the connection. *)

val wait_ready : ?timeout_s:float -> string -> bool
(** Poll connect-and-ping on a Unix socket path until the daemon
    answers or the timeout passes. *)
