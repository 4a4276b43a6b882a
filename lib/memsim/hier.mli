(** Multi-level cache hierarchy over policy-pluggable {!Level}s.

    §4 of the paper expects its single-level results "to extend to
    the two- and even three-level caches that are becoming common";
    this engine runs those hierarchies at chunked-sweep speed.  A
    *fused* hierarchy simulates L1 over packed chunks with the
    hoisted fast loop, appends L1's misses and write-backs to a
    reusable miss-stream buffer (the {!Chunk} codec, spare kind code
    3 marking a write-back), then drains that buffer through L2 and
    L2's stream through L3 — lower levels do O(misses) work instead
    of O(events) hook dispatch, with per-level statistics
    bit-identical to the *hooked* per-event oracle ([create
    ~fused:false]), which chains levels with per-event fill hooks. *)

type config = {
  levels : Level.config array;  (** L1 first; blocks must not shrink
                                    down the hierarchy *)
  hit_ns : float array;         (** hit latency of each level below L1;
                                    length [Array.length levels - 1] *)
}

val config : ?hit_ns:float list -> levels:Level.config list -> unit -> config
(** [hit_ns] defaults to 24 ns for L2 and 80 ns for L3 (12 and 40
    cycles of the 2 ns fast processor). *)

type t

val create : ?fused:bool -> config -> t
(** [fused] defaults to [true].  [~fused:false] builds the hooked
    per-event oracle: same per-level results, an order of magnitude
    slower — it exists to differentially validate the fused engine.
    @raise Invalid_argument on an empty level list, a latency count
    mismatch, or blocks that shrink down the hierarchy. *)

val geometry : t -> config

val access_chunk : t -> Chunk.buf -> int -> int -> unit
(** Deliver a chunk of packed events ({!Chunk} codec) through the
    hierarchy.  Works on both engines; on the fused engine this is
    the only delivery path.
    @raise Invalid_argument when the range is out of bounds. *)

val access : t -> int -> Trace.kind -> Trace.phase -> unit
(** Per-event delivery; hooked engine only.
    @raise Invalid_argument on a fused hierarchy. *)

val sink : t -> Trace.sink
(** Per-event sink over {!access}; hooked engine only. *)

val level : t -> int -> Level.t
(** [level t i] is level [i] (L1 is 0) itself, for per-level work the
    hierarchy does not do — attribution ({!Level.access_chunk_attr})
    or per-event delivery to a one-level hierarchy.  Feeding it events
    directly bypasses the levels below it. *)

val stats : t -> Cache.stats array
(** Per-level counters, L1 first. *)

val level_stats : t -> int -> Cache.stats

val stall_cycles :
  config -> Cache.stats array -> Timing.processor -> collector:bool -> float
(** [stall_cycles cfg stats cpu ~collector] is the stall time, in
    cycles, of one phase's fetches through a hierarchy of geometry
    [cfg] that left per-level counters [stats] (L1 first): the
    collector's when [collector], else the mutator's.  Each fetch is
    charged disjointly: a fetch that hits level i+1 costs
    [hit_ns.(i)], and only fetches that miss every level pay the
    main-memory penalty of the last level's block. *)

val overhead : t -> Timing.processor -> instructions:int -> float
(** {!stall_cycles} of the mutator's traffic as a fraction of the
    idealized running time, [instructions] cycles. *)

(** {1 Per-CPU presets}

    Geometries and replacement policies follow the CacheTrace tables
    for Intel client parts: Tree-PLRU 32k/8-way L1 and 256k L2
    everywhere, an MRU L3 on Nehalem, QLRU_H11_M1_R1_U2 L3s from Ivy
    Bridge through Skylake, QLRU_H11_M1_R0_U0 on Coffee Lake; 64-byte
    blocks throughout. *)

type cpu =
  | Nhm  (** Nehalem: 8-way L2, 8m 16-way MRU L3 *)
  | Ivb  (** Ivy Bridge: 8-way L2, 8m 16-way QLRU R1/U2 L3 *)
  | Hsw  (** Haswell: as Ivy Bridge *)
  | Skl  (** Skylake: 4-way L2, 8m 16-way QLRU R1/U2 L3 *)
  | Cfl  (** Coffee Lake: 4-way L2, 12m 12-way QLRU R0/U0 L3 *)

val all_cpus : cpu list
val cpu_label : cpu -> string
val cpu_title : cpu -> string
val cpu_of_label : string -> cpu option

val preset : ?write_miss_policy:Cache.write_miss_policy -> cpu -> config
(** Three-level configuration for [cpu]; the write-miss policy
    (default write-validate, matching the paper's engine) applies to
    every level. *)

(** {1 Checkpointing} *)

val snapshot : t -> Buffer.t -> unit
(** Append the full hierarchy state — every level's tags, valid
    masks, dirty bits, packed policy words, and counters — so a
    restored hierarchy continues a replay bit-identically. *)

val restore : t -> Bytes.t -> int -> int
(** [restore t src pos] loads a snapshot written by {!snapshot},
    returning the position after it.
    @raise Invalid_argument naming the byte offset in [src] on a
    truncated, foreign, or mismatched snapshot (a level count other
    than the hierarchy's included), or as {!Level.restore}. *)
