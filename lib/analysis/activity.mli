(** Cache-activity analysis: the §7 "local vs. global performance"
    graphs.

    The cache blocks (lines) of a direct-mapped cache are ranked by
    mutator reference count; for each block the {e local miss ratio}
    (non-allocation misses over references) is computed, along with
    the cumulative miss-ratio curve whose endpoint is the cache's
    global (non-allocation) miss ratio.  The paper reads off this
    analysis: best-case busy blocks pull the cumulative curve down at
    the far right, outweighing the worst-case (thrashing) blocks.

    The per-line counts are kept here, not in the simulator: the
    analyzer wraps a 1-way {!Memsim.Level}'s per-event path and
    charges each mutator access, and the change it made to the
    level's miss and allocation-miss counters, to the line the
    address indexes. *)

type point = {
  refs : int;
  misses : int;        (** excluding allocation misses *)
  alloc_misses : int;
}

type result = {
  points : point array;       (** sorted by [refs], ascending *)
  total_refs : int;
  total_misses : int;         (** excluding allocation misses *)
  global_miss_ratio : float;
  cum_ratio : float array;    (** cumulative miss ratio per rank *)
  peak_cum_ratio : float;
  final_drop_factor : float;  (** [peak_cum_ratio / global_miss_ratio] *)
  worst_case_blocks : int;
      (** blocks in the top percentile of references whose local miss
          ratio exceeds 0.4 — thrashing candidates *)
  best_case_blocks : int;
      (** top-percentile blocks with local miss ratio below 0.01 *)
}

type t

val create : Memsim.Level.t -> t
(** Wrap a direct-mapped level with zeroed per-line counters.
    @raise Invalid_argument when the level has more than one way. *)

val sink : t -> Memsim.Trace.sink
(** Forward every event to the level ({!Memsim.Level.access}) and
    count the mutator ones per line.  Only events delivered through
    this sink are counted. *)

val analyze : t -> result

val render : Format.formatter -> result -> unit
(** ASCII rendering of the figure on a 20-row, 100-column canvas: one
    dot per cache block at (rank, log local miss ratio), with the
    cumulative miss-ratio curve overlaid as ['C']. *)
