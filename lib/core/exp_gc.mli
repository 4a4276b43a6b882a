(** The §6 experiments, the one measurement every cache experiment
    outside §7 goes through (E-F1/T3/T4, E-F2, E-T5, E-T6, E-A1, E-A3,
    E-A4 and E-H1), and the O_gc they charge.

    - E-F2: garbage-collection overhead (O_gc) of the Cheney semispace
      collector for selfcomp, nbody and mexpr, against cache size at
      64-byte blocks — the paper's figure with orbit, nbody, gambit.
    - E-T5: the lp pathology — lred under Cheney (recopying its
      monotonically growing trail every collection) against an
      infrequently-run generational collector.
    - E-T6: the aggressive-collection argument — a generational
      collector with the nursery swept from cache-sized ("aggressive")
      to multi-megabyte ("infrequent"), showing that smaller nurseries
      cost more than any cache improvement they could buy. *)

val caches : int list -> Memsim.Hier.config list
(** One direct-mapped 64-byte-block cache per size, each a one-level
    hierarchy: the §6 figure's grid. *)

type replayed = {
  geometry : Memsim.Hier.config;
  levels : Memsim.Cache.stats array;  (** per-level counters, L1 first *)
}
(** What a replayed hierarchy leaves behind: its geometry and
    counters, not its line state, so measured cells stay small. *)

type measured = {
  value : string;          (** the program's printed result *)
  insns : int;             (** mutator instructions *)
  collector_insns : int;
  collections : int;
  bytes_allocated : int;
  hiers : replayed array;  (** one per configuration, in order *)
}

val measure :
  jobs:int ->
  ?gc:Vscheme.Machine.gc_spec ->
  ?scale:int ->
  Workloads.Workload.t ->
  Memsim.Hier.config list ->
  measured
(** Lease one run of [w] ({!Runner.with_lease}, so a run measured before
    replays its kept trace), replay it into a fresh hierarchy per
    configuration with {!Memsim.Sweep.hier_run_parallel}[ ~jobs], and
    release the lease. *)

val o_gc :
  Memsim.Timing.processor -> baseline:measured -> collected:measured -> int ->
  float
(** [o_gc cpu ~baseline ~collected i] is §6's
    [((M_gc + ΔM_prog) · P + I_gc + ΔI_prog) / I_prog] through
    hierarchy [i] of both runs: {!Memsim.Hier.stall_cycles} of the
    collected run's collector and mutator traffic, minus the
    baseline's mutator traffic, plus the instruction delta, over the
    baseline's mutator instructions.  For a one-level hierarchy it is
    the paper's formula; it is negative when the collector improves
    the program's locality by more than it costs.
    @raise Invalid_argument when the baseline ran no instructions. *)

val semispace_for : bytes_allocated:int -> int
(** The semispace (or first generation) a collected run of a program
    that allocates [bytes_allocated] gets: larger than the live set,
    much smaller than total allocation, so the collector runs several
    times, as the paper's 16 MB semispaces did against 34–357 MB
    runs. *)

val figure_gc_overhead : Format.formatter -> unit
val table_lp_pathology : Format.formatter -> unit
val table_aggressive : Format.formatter -> unit
