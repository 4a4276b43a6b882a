(** The vscheme runtime heap and its areas.

    The simulated address space is laid out as in the systems the paper
    measured:

    {v
      0 ............... static area (symbols, names, quoted constants,
                        global cells, runtime tables; never collected)
      static_words .... stack area (the procedure-call stack)
      stack_top ....... dynamic area (managed by the installed collector)
    v}

    Allocation in the dynamic area is {e linear}: a single allocation
    pointer is bumped and every initializing store is reported to the
    trace as {!Memsim.Trace.Alloc_write}, which is what produces the
    paper's allocation-miss "wave".

    The heap is collector-agnostic: a collector module installs a
    [collect] callback and manipulates the dynamic region through the
    low-level interface at the bottom of this file.  With no collector
    installed, exhausting the dynamic area raises {!Out_of_memory}
    (the §5 control-experiment configuration). *)

exception Out_of_memory of string

exception Runtime_error of string
(** Scheme-level error (type errors, arity errors, [error] calls). *)

val error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Runtime_error} with a formatted message. *)

type t

type area =
  | Static   (** load-time data: interned symbols, literals *)
  | Dynamic  (** run-time data: collected *)

val create :
  mem:Mem.t -> static_words:int -> stack_words:int -> t
(** Carve the three areas out of [mem]: the dynamic area is everything
    above the static and stack reservations. *)

val mem : t -> Mem.t

(** {1 Area geometry (word addresses)} *)

val stack_base : t -> int
val stack_limit : t -> int

val dynamic_base : t -> int
(** Bottom of the whole dynamic area. *)

val dynamic_limit : t -> int
(** Top of the whole dynamic area. *)

val alloc_ptr : t -> int

(** {1 Statistics} *)

val bytes_allocated : t -> int

val mutator_insns : t -> int
val charge_mutator : t -> int -> unit
(** Charge simulated mutator instructions (the VM and primitives call
    this; see DESIGN.md for the cost model). *)

val collector_insns : t -> int
val charge_collector : t -> int -> unit

val collections : t -> int
(** Number of completed collections; doubles as the stamp that
    invalidates address-based hash tables (§6's rehashing cost). *)

(** {1 Telemetry} *)

val telemetry : t -> Obs.Events.timeline option
(** The event timeline instrumentation publishes to, if any.
    Instrumentation sites match on this option, so disabled telemetry
    costs one branch and allocates nothing. *)

val set_telemetry : t -> Obs.Events.timeline option -> unit
(** Attach (or detach) a timeline; attaching points the timeline's
    clock at {!logical_time}. *)

(** {1 Attribution}

    With a {!Memsim.Attr.table} attached, the heap keeps the table's
    region-map epochs in step with its layout (publishing at attach,
    at every {!set_dynamic_window}, and wherever a collector calls
    {!publish_regions}) and stamps an allocation-site run at every
    {!alloc} — both keyed by {!Mem.recorded_position}, so they are
    meaningful when the memory records via the direct fast path.
    Detached (the default), every hook below is a single option
    branch. *)

val attach_attr : t -> Memsim.Attr.table -> unit
(** Attach the side table and publish the initial region map (the
    current allocation window as tospace).  Attach before the first
    traced access so position 0 is covered. *)

val attr : t -> Memsim.Attr.table option

val set_alloc_site : t -> int -> unit
(** Set the interned site ({!Memsim.Attr.intern_site}) charged for
    subsequent allocations; the VM calls this at each allocating
    instruction.  Sticky until the next call. *)

(** {1 Allocation and object access} *)

val ensure : t -> int -> unit
(** [ensure t words] guarantees that the next [words] words of dynamic
    allocation will not trigger a collection, collecting now if
    necessary.  Allocating code calls this {e before} reading the
    values it is about to store, so that no naked pointer is held
    across a potential collection.

    @raise Out_of_memory when the collector cannot free enough. *)

val alloc : t -> area -> Value.tag -> len:int -> int
(** [alloc t area tag ~len] allocates an object with a [len]-word
    payload, writes its header, and returns its word address.  The
    caller must initialize every payload word with {!init_field}
    before the next allocation.  May trigger a collection (dynamic
    area only).

    @raise Out_of_memory when the area cannot be extended. *)

val peek_header : t -> int -> int
(** Untraced header read: models the hardware tag check a 1990s Scheme
    system performs in registers.  Used for type checks only. *)

val load_field : t -> int -> int -> Value.t
(** [load_field t addr i] is a traced read of payload word [i]. *)

val store_field : t -> int -> int -> Value.t -> unit
(** Traced mutating store of payload word [i]; runs the write
    barrier. *)

val init_field : t -> int -> int -> Value.t -> unit
(** Traced initializing store of payload word [i]; no barrier. *)

(** {1 Typed constructors and accessors}

    Type checks use untraced header peeks (modeling low-tag checks);
    bounds checks that a real system performs by loading the header
    (vector and string lengths) are traced reads. *)

val type_check : t -> Value.t -> Value.tag -> string -> int
(** [type_check t v tag who] returns the word address of [v] after
    checking that it points to a [tag] object.
    @raise Runtime_error otherwise, citing [who]. *)

val has_tag : t -> Value.t -> Value.tag -> bool

val cons : ?area:area -> t -> Value.t -> Value.t -> Value.t
val car : t -> Value.t -> Value.t
val cdr : t -> Value.t -> Value.t
val set_car : t -> Value.t -> Value.t -> unit
val set_cdr : t -> Value.t -> Value.t -> unit

val make_vector : ?area:area -> t -> int -> Value.t -> Value.t
(** [make_vector t n fill]. *)

val vector_length : t -> Value.t -> int
(** Traced header read. *)

val vector_ref : t -> Value.t -> int -> Value.t
(** Traced header read (bounds check) plus element read. *)

val vector_set : t -> Value.t -> int -> Value.t -> unit

val make_closure : t -> code:int -> nfree:int -> Value.t
(** Free slots are initialized to the undefined marker; the VM fills
    them with {!init_field} at offsets [1 .. nfree]. *)

val closure_code : t -> Value.t -> int
(** Traced read of the code-id slot. *)

val is_closure : t -> Value.t -> bool

val make_cell : ?area:area -> t -> Value.t -> Value.t
val cell_ref : t -> Value.t -> Value.t
val cell_set : t -> Value.t -> Value.t -> unit

val flonum : ?area:area -> t -> float -> Value.t
(** Boxed, two payload words of raw bits (a 64-bit double on a 32-bit
    word machine). *)

val flonum_val : t -> Value.t -> float
(** Two traced payload reads. *)

val make_string : ?area:area -> t -> string -> Value.t
val string_val : t -> Value.t -> string
(** Traced reads of the length word and every data word. *)

val string_length : t -> Value.t -> int
val string_ref : t -> Value.t -> int -> char

val intern : t -> string -> Value.t
(** Intern a symbol in the static area (idempotent). *)

val symbol_name : t -> Value.t -> string
val is_symbol : t -> Value.t -> bool

(** {1 Collector interface} *)

type roots =
  | Range of (unit -> int * int)
      (** a live range [lo, hi) of word addresses scanned in simulated
          memory (stack, global cells, store buffers) *)
  | Registers of Value.t array * (unit -> int)
      (** host-side machine registers: array plus live count; scanned
          and updated without trace events *)

val add_roots : t -> roots -> unit
val root_sets : t -> roots list

val set_collector :
  t -> name:string -> (requested_words:int -> unit) -> unit
(** Install the collection entry point.  It runs with the memory phase
    already switched to [Collector] and must leave [alloc_ptr]/
    [alloc_limit] with room for the request, or raise
    {!Out_of_memory}. *)

val collector_name : t -> string

val set_write_barrier : t -> (field_addr:int -> value:Value.t -> unit) -> unit
(** Hook run by {!store_field} before the store, given the absolute
    word address being written and the new value. *)

val set_dynamic_window : t -> base:int -> limit:int -> unit
(** Point linear allocation at [base, limit); used by collectors to
    select semispaces and nurseries. *)

val note_collection : t -> unit
(** Bump the collection counter / hash-table stamp. *)

val publish_regions :
  t -> to_lo:int -> to_hi:int -> from_lo:int -> from_hi:int -> unit
(** Publish a region-map epoch at the current recorded position (word
    addresses; static/stack bounds are filled in from the heap's
    fixed layout).  Collectors call this with their semispace bounds
    at collection entry and exit; it overrides the window-derived map
    {!set_dynamic_window} publishes at the same position.  No-op
    without an attached table. *)

val gc_read : t -> int -> int
val gc_write : t -> int -> int -> unit
(** Traced raw word access for collectors (attribution to the
    collector phase is handled by the machine's phase flag). *)
