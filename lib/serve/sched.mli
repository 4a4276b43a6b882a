(** The job scheduler: a [Domain.spawn] worker pool over one FIFO job
    queue (submission and recovery order), a content-hash result
    cache, and journal-backed crash recovery.

    Submitting a manifest whose content hash is already in the result
    store completes immediately as a cache hit, answered from the
    store's in-memory index and, for a text submitted before, without
    parsing it again; one that matches a
    queued or running job piggybacks on it and completes with it.  A
    job whose worker dies mid-run (the [kill] injection hook, or a
    whole-process kill) is requeued — or recovered from the journal on
    the next start — and its next attempt {e resumes} from the sweep
    checkpoint rather than restarting. *)

exception Killed
(** Raised by the kill-injection hook to simulate a worker dying
    mid-job; the scheduler requeues the job, keeping its checkpoint. *)

type config = {
  workers : int;
  checkpoint_every : int option;
      (** replay events between checkpoints (default: the sweep's) *)
  kill : (Job.t -> int -> bool) option;
      (** injection hook, called with the job and the replay cursor at
          every progress tick; returning [true] kills the attempt *)
}

val default_config : config
(** 2 workers, default checkpoint cadence, no kill injection. *)

type t

val create : ?config:config -> string -> t
(** Open (or recover) the spool at this directory and start the
    workers.  Journal recovery re-enqueues every job the previous
    daemon left non-terminal; job ids continue from the journal's
    maximum. *)

val submit : t -> string -> (int, string) result
(** Parse one [(run ...)] manifest entry and enqueue it; returns the
    job id.  Malformed manifests are an [Error], never an exception. *)

val job_json : t -> int -> (Obs.Json.t, string) result

val result : t -> int -> (Store.stored, string) result
(** A done job's stored result, from the store's in-memory index
    ({!Store.lookup}). *)

val cancel : t -> int -> (string, string) result
val stats : t -> Obs.Json.t
(** Workers, job counts by state, the scheduler's counters, the
    process's [runner.*] trace-memo counters ({!Core.Runner.counters})
    and the metrics registry. *)

val wait : t -> int -> (Obs.Json.t, string) result
(** Block until the job is terminal; its final snapshot. *)

val drain : t -> unit
(** Block until every submitted job is terminal. *)

val shutdown : ?drain:bool -> t -> unit
(** Stop the pool and join the workers.  With [drain] (default) the
    queue empties first; without it, queued jobs are cancelled and
    running jobs are interrupted at their next progress tick. *)

val latency_buckets : float array
(** Upper bounds, in ms, of the ["serve.latency_ms"] histogram: 1-2-5
    per decade from 0.001 to 60000. *)

val latency_quantile : t -> float -> float
val counter_value : t -> string -> int
(** ["submitted"] / ["completed"] / ["failed"] / ["cancelled"] /
    ["cache_hits"] / ["resumed"] / ["requeued"].
    @raise Invalid_argument on any other name. *)

val store : t -> Store.t
