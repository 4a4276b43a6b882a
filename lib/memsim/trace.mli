(** Memory-reference trace events.

    The vscheme virtual machine (and any other trace source) describes
    each data reference by a byte address, an access {!kind} and the
    {!phase} of execution that issued it.  Consumers — caches, behavior
    analyzers, plotters — receive the stream through a {!sink}.

    Addresses are byte addresses into the simulated address space; every
    access touches one 4-byte word ({!word_bytes}). *)

val word_bytes : int
(** Size of one simulated machine word, in bytes (4, as on the 32-bit
    MIPS systems the paper measured). *)

type kind =
  | Read         (** data load *)
  | Write        (** mutating store to an already-initialized word *)
  | Alloc_write  (** initializing store to a freshly-allocated word *)

type phase =
  | Mutator    (** the program itself *)
  | Collector  (** the garbage collector *)

type sink = { access : int -> kind -> phase -> unit }
(** A trace consumer.  [access addr kind phase] delivers one event. *)

val null : sink
(** Sink that discards every event. *)

val tee : sink list -> sink
(** [tee sinks] forwards every event to each sink in order.  The
    one- and two-element cases are specialized to avoid per-event list
    traversal on hot paths. *)

val counting : unit -> sink * (unit -> int)
(** [counting ()] is a sink plus a function returning how many events
    it has received; useful in tests. *)

val counting_by_phase : unit -> sink * (unit -> int * int)
(** [counting_by_phase ()] is a sink plus a function returning
    [(mutator, collector)] event counts — the mutator/collector
    reference split every runner needs, without hand-rolling two
    refs. *)
