(** The §7 cache-miss sweep plot.

    A dot is shown at (time, cache block) when at least one miss
    occurred in that cache block during that time interval.  Linear
    allocation appears as broken diagonal lines — the allocation
    pointer sweeping the cache — while thrashing blocks appear as
    horizontal stripes. *)

type t

val create :
  level:Memsim.Level.t -> rows:int -> refs_per_col:int -> unit -> t
(** Wrap a direct-mapped [level]: the returned object's {!sink}
    forwards every event to the level ({!Memsim.Level.access}) and
    buckets misses — any phase, read by the change each access makes
    to the level's miss counters — into a grid of [rows] vertical
    cells (cache blocks scaled down) and one column per
    [refs_per_col] mutator references.
    @raise Invalid_argument when the level has more than one way or
    [rows] or [refs_per_col] is not positive. *)

val sink : t -> Memsim.Trace.sink

val columns : t -> int
(** Number of time columns accumulated so far. *)

val render : Format.formatter -> t -> unit
(** Print the dot grid, newest column last; wider plots are split into
    110-column bands. *)
