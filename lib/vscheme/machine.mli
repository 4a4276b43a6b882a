(** A complete vscheme system instance: simulated memory, heap,
    collector, compiler linkage and virtual machine, wired to a
    recording or a trace sink.

    This is the analogue of "version 3.1 of the T system running on a
    MIPS R3000 under an instruction-level emulator" (§3): create a
    machine with the collector configuration under study, evaluate
    Scheme programs on it, and every data reference the system makes
    is appended to the recording ([record]) or streams to the
    [sink]. *)

type gc_spec =
  | No_gc
      (** §5 control configuration: linear allocation in a single
          contiguous area sized by [heap_bytes]; exhausting it raises
          {!Heap.Out_of_memory} *)
  | Cheney of { semispace_bytes : int }
      (** §6 simple collector *)
  | Generational of { nursery_bytes : int; old_bytes : int }
      (** two-generation copying collector; a cache-sized nursery
          gives the "aggressive" configuration *)
  | Mark_sweep of { nursery_bytes : int; old_bytes : int }
      (** Zorn-style non-compacting generational mark-sweep: promotion
          into segregated free lists, in-place major collections *)

type config = {
  sink : Memsim.Trace.sink;
  gc : gc_spec;
  heap_bytes : int;      (** dynamic-area capacity for [No_gc] *)
  static_bytes : int;
  stack_bytes : int;
  max_globals : int;
  load_prelude : bool;
  seed : int;            (** [random] primitive seed *)
  pathological_layout : bool;
      (** when true, skip the static-area padding so the runtime
          vector and global cells alias the stack base in every
          power-of-two cache — the manufactured worst case of
          experiment A2 (see DESIGN.md) *)
  telemetry : Obs.Events.timeline option;
      (** event timeline the machine and its collector publish GC
          lifecycle events to; [None] (the default) disables event
          telemetry at the cost of one branch per emission site *)
  record : Memsim.Recording.t option;
      (** when given, the machine's memory records every traced access
          directly into this recording ({!Mem.record_into} — no
          per-event closure call) and [sink] is {e not} called.  Call
          {!Mem.sync_recording} on {!mem} before reading the
          recording. *)
  attr : Memsim.Attr.table option;
      (** when given, the heap keeps this attribution side table's
          region map current and the VM stamps allocation sites into
          it, keyed by recording position — meaningful together with
          [record] (the positions index that recording).  [None] (the
          default) makes every producer-side hook one option
          branch. *)
}

val default_config : config
(** No GC, 64 MB dynamic area, 2 MB static, 256 KB stack, prelude
    loaded, null sink, no direct recording. *)

type t

val create : config -> t

val stack_base_bytes : config -> int
(** Byte address where the stack area will start for this
    configuration (the static-area reservation, rounded to words). *)

val dynamic_base_bytes : config -> int
(** Byte address where the dynamic area will start for this
    configuration.  Analyzers that must exist before the machine (the
    machine's sink is fixed at creation) use these to classify
    addresses. *)

val dynamic_limit_bytes : config -> int
(** One past the last byte of the dynamic area for this
    configuration: its base plus the capacity the collector spec
    requires ([heap_bytes] for [No_gc], two semispaces for [Cheney],
    nursery plus old space for the generational collectors). *)

val heap : t -> Heap.t

(** The collector {!create} installed, with its statistics.  The
    machine (and its heap's collection entry point) is the instance's
    only owner: nothing process-wide keeps a dropped machine, its
    collector or its memory alive. *)
type collector =
  | No_collector
  | Cheney_collector of Gc_cheney.t
  | Generational_collector of Gc_generational.t
  | Mark_sweep_collector of Gc_marksweep.t

val collector : t -> collector

val mem : t -> Mem.t
(** The simulated memory, for recording sync and tests. *)

val eval_string : t -> string -> Value.t
(** Read, expand, compile and run every form in the source text;
    the value of the last form is returned.

    @raise Sexp.Parser.Error on unreadable input
    @raise Expander.Syntax_error on malformed special forms
    @raise Compiler.Compile_error on statically detected errors
    @raise Heap.Runtime_error on Scheme-level runtime errors
    @raise Heap.Out_of_memory when storage is exhausted *)

val value_to_string : t -> Value.t -> string
(** [write]-style external representation (untraced output path). *)

val output : t -> string
(** Everything the program has [display]ed so far. *)

val clear_output : t -> unit

type run_stats = {
  mutator_insns : int;
  collector_insns : int;
  collections : int;
  bytes_allocated : int;
}

val stats : t -> run_stats
