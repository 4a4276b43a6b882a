(** The vscheme virtual machine: a stack machine over simulated memory.

    {2 Frame layout}

    The procedure-call stack lives in the simulated stack area and
    grows upward.  A frame for a procedure with [p] parameter slots:

    {v
      fp-1 : the closure being executed (callee value, a GC root)
      fp+0 .. fp+p-1 : parameters (a rest list occupies the last slot)
      fp+p, fp+p+1   : saved frame pointer and return address, written
                       as fixnums (the MIPS ra/fp spill); the shadow
                       control stack on the OCaml side holds the
                       authoritative copies
      fp+p+2 ...     : let-bound locals and the operand stack
    v}

    Every push, pop, argument store and control-word spill is a traced
    reference, so the stack area produces the busy static blocks §7 of
    the paper observes.  On every call the VM also reads one slot of a
    small static {e runtime vector} (the stack-limit check), modeling
    the "small vector internal to the T runtime system" that the paper
    finds to be the busiest block of all.

    {2 Instruction accounting}

    Executing an instruction charges {!Bytecode.instr_cost} (or the
    primitive's cost) simulated instructions via
    {!Heap.charge_mutator}, approximating the MIPS code a compiler of
    the paper's era would emit. *)

type t

val create :
  heap:Heap.t ->
  ctx:Primitives.ctx ->
  globals_base:int ->
  globals_limit:int ->
  runtime_vec:int ->
  t
(** [globals_base, globals_limit) is the global-cell region and
    [runtime_vec] the runtime state vector, both in the static area.
    The caller (normally {!Machine}) must register the VM's stack
    range, register file and global cells as GC roots. *)

val sp : t -> int
(** Current stack pointer (word address of the next free slot). *)

val add_code : t -> Bytecode.code -> unit
(** Install a code object; its id must equal the number of codes
    installed before it. *)

val code_count : t -> int

val globals_count : t -> int
val define_global : t -> string -> int
(** Allocate (or find) the global cell for a name; fresh cells are
    initialized to the undefined marker. *)

val write_global : t -> int -> Value.t -> unit
(** Traced store into a global cell (load-time initialization). *)

val execute : t -> int -> Value.t
(** Run the zero-argument code object with the given id to completion
    on a fresh stack and return its value.

    @raise Heap.Runtime_error on Scheme-level errors.
    @raise Heap.Out_of_memory when the collector cannot make room. *)
