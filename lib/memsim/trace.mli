(** Memory-reference trace events.

    The vscheme virtual machine (and any other trace source) describes
    each data reference by a byte address, an access {!kind} and the
    {!phase} of execution that issued it.  Every run is recorded
    ({!Recording}) and consumers read the recording afterwards: caches
    and sweeps a chunk at a time, the §7 behavior analyzers and test
    oracles one event at a time through a {!sink}
    ({!Recording.replay}).

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
