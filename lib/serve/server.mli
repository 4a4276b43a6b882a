(** The daemon's socket front end: a Unix-domain listener, one thread
    per connection, speaking the {!Proto} frame protocol against a
    {!Sched.t}. *)

type t

val create : socket:string -> Sched.t -> t
(** Bind the listener (removing a stale socket file) and ignore
    SIGPIPE. *)

val run : t -> unit
(** Accept-and-serve until a [shutdown] request arrives, then close
    the listener, remove the socket file, and shut the scheduler
    down (draining or not as the request asked).  Returns when the
    scheduler has stopped. *)

val request_shutdown : t -> drain:bool -> unit
(** What a [shutdown] frame does; exposed for signal handlers. *)
