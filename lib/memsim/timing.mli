(** Temporal cost model from §5 of the paper.

    Miss penalties follow the main-memory system studied by Przybylski:
    30 ns of address setup, 180 ns of access, and 30 ns of transfer per
    16 bytes, so fetching an [n]-byte block takes
    [30 + 180 + 30 * ceil(n / 16)] nanoseconds.

    Two hypothetical processors are modeled: the {e slow} processor has
    a 30 ns cycle (33 MHz, a 1994 workstation) and the {e fast}
    processor a 2 ns cycle (500 MHz).  Hit time is one cycle on both,
    so overheads count stall cycles only.

    This module charges the no-GC overhead O_cache of §5.  The §6
    collector overhead O_gc is [Core.Exp_gc.o_gc], which charges a
    baseline and a collected run through {!Hier.stall_cycles}. *)

type processor =
  | Slow  (** 30 ns cycle time (33 MHz) *)
  | Fast  (** 2 ns cycle time (500 MHz) *)

val all_processors : processor list
(** [[Slow; Fast]]. *)

val cycle_ns : processor -> float
(** Cycle time in nanoseconds. *)

val miss_penalty : processor -> block_bytes:int -> float
(** Miss penalty in processor cycles: the time to fetch one block of
    [block_bytes] bytes from main memory over {!cycle_ns}.  Not
    rounded; overheads are ratios and the paper's table is in whole
    cycles only for presentation.
    @raise Invalid_argument if [block_bytes] is not positive. *)

val miss_penalty_cycles : processor -> block_bytes:int -> int
(** The paper's presentation form: [miss_penalty] rounded to the
    nearest whole cycle. *)

val writeback_penalty : processor -> block_bytes:int -> float
(** Cycles to retire one dirty-block write-back.  Write-backs go
    through a write buffer and use page mode, so only the transfer
    time (30 ns per 16 bytes) stalls the processor, not the address
    setup and access latency of a fetch. *)

val cache_overhead :
  processor -> block_bytes:int -> fetches:int -> instructions:int -> float
(** [cache_overhead p ~block_bytes ~fetches ~instructions] is O_cache:
    total stall time for [fetches] block fetches, expressed as a
    fraction of the idealized running time of [instructions]
    one-cycle instructions. *)

val pp_processor : Format.formatter -> processor -> unit
