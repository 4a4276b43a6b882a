(** One submitted sweep job.

    The mutable fields are owned by the scheduler and written only
    under its mutex; everyone else reads through {!to_json} snapshots
    taken under that same mutex. *)

type state =
  | Queued
  | Running of int  (** worker index *)
  | Done
  | Failed of string
  | Cancelled

type t = {
  id : int;
  name : string;                  (** the manifest run's name (a label) *)
  hash : string;                  (** {!Golden.Manifest.content_hash} *)
  run : Golden.Manifest.run;
  run_text : string;              (** the submitted sexp, for the journal *)
  mutable state : state;
  mutable cached : bool;          (** served from the result store *)
  mutable attempts : int;
  mutable resumed : bool;         (** continued from a checkpoint at least once *)
  mutable cancel_requested : bool;
  submitted_at : float;
  mutable finished_at : float option;
}

val make :
  id:int -> now:float -> run:Golden.Manifest.run -> hash:string ->
  run_text:string -> t
(** [hash] is [run]'s {!Golden.Manifest.content_hash}, which the
    caller has already computed. *)

val terminal : t -> bool
val state_string : t -> string

val latency_ms : now:float -> t -> float
(** Submit-to-finish, or submit-to-[now] while the job is live. *)

val to_json : now:float -> t -> Obs.Json.t
