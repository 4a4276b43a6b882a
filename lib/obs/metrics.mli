(** Metrics registry: counters, gauges and fixed-bucket histograms.

    A registry owns a single [enabled] cell that every instrument
    created from it shares, so the disabled path of an update is one
    boolean load and a branch — no allocation, no table lookup.  Hot
    code keeps the instrument handle; the registry is only consulted at
    registration and export time.

    Registration is idempotent: asking for the same name returns the
    existing instrument (so several collector modules can share
    "gc.collections").  Asking for an existing name as a different
    instrument type raises [Invalid_argument]. *)

type registry

val create : ?enabled:bool -> unit -> registry
(** Fresh registry, enabled unless [~enabled:false]. *)

val default : registry
(** The process-wide registry the VM and collectors publish to. *)

val set_enabled : registry -> bool -> unit

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit

  val set : t -> int -> unit
  (** Unconditional overwrite, for publishing an externally-maintained
      total at export time.

      {b Unlike} {!incr} and {!add}, [set] deliberately {e bypasses}
      the registry's enabled flag: it is a publication of a value
      maintained elsewhere, not an instrumentation event, so a
      disabled registry still exports the last published total rather
      than a stale zero.  Callers on hot paths must use {!add}; call
      [set] only from export/snapshot code.  (Behavior is pinned by
      [test_obs]; see "counter.set ignores enabled".) *)

  val value : t -> int
end

module Gauge : sig
  type t

  val set : t -> float -> unit
  val value : t -> float
end

module Histogram : sig
  type t

  val observe : t -> float -> unit
  val observe_int : t -> int -> unit
  val count : t -> int
  val sum : t -> float

  val bucket_counts : t -> int array
  (** One count per bound plus a final overflow bucket; copies. *)

  val quantile : t -> float -> float
  (** [quantile h q] estimates the [q]-quantile ([q] clamped to
      [0, 1]) from the bucket counts, interpolating linearly inside
      the bucket that holds the [q*count]-th observation (the first
      bucket's lower edge is taken as [min 0 bound]).  Observations
      in the +inf overflow bucket clamp to the last finite bound —
      the familiar Prometheus [histogram_quantile] bias.  Returns
      [nan] on an empty histogram. *)
end

val counter : ?help:string -> registry -> string -> Counter.t
val gauge : ?help:string -> registry -> string -> Gauge.t

val histogram :
  ?help:string -> registry -> string -> buckets:float array -> Histogram.t
(** [buckets] are strictly increasing upper bounds; an implicit +inf
    bucket is appended.  @raise Invalid_argument on empty or unsorted
    bounds. *)

val reset : registry -> unit
(** Zero every instrument (registrations are kept). *)

val to_json : registry -> Json.t
(** One object keyed by instrument name, in registration order.
    Non-empty histograms additionally export ["p50"]/["p90"]/["p99"]
    fields computed with {!Histogram.quantile}. *)
