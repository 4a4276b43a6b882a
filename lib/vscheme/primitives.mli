(** The primitive procedures of the vscheme runtime.

    Primitives are the "machine level" of the system: operations a
    1990s Scheme compiler would open-code or implement in the runtime
    kernel.  Library procedures with interesting allocation behaviour
    ([append], [reverse], [map], [length], ...) are deliberately {e
    not} primitives — they live in the Scheme prelude
    ({!Workloads.Prelude}, shipped with the machine) so that their
    memory traffic is real program traffic.

    Every primitive charges simulated instructions via
    {!Heap.charge_mutator} (a base cost from its {!spec}, plus
    per-element charges inside loops) and performs traced memory
    accesses for everything a real implementation would touch.

    GC discipline: a primitive that allocates calls {!Heap.ensure} for
    its whole allocation budget {e before} reading heap pointers, so
    no naked pointer is held across a collection. *)

type ctx = {
  heap : Heap.t;
  out : Buffer.t;         (** [display]/[write] output *)
  mutable rng : int;      (** deterministic LCG state for [random] *)
  mutable gensyms : int;  (** per-machine [gensym] counter, so trace
                              streams are identical across machine
                              instances in one process *)
  reg : Value.t array;
      (** machine registers, registered as GC roots by the machine;
          slots 0–1 belong to the VM, 2+ are primitive scratch *)
}

type spec = {
  name : string;
  arity : int;            (** minimum argument count *)
  variadic : bool;
  cost : int;             (** base instruction charge *)
  fn : ctx -> base:int -> nargs:int -> Value.t;
      (** [base] is the word address of the first argument on the
          simulated stack; the VM keeps the arguments below the stack
          pointer for GC safety while the primitive runs *)
}

val find : string -> int option
(** Primitive id for a name, if any. *)

val spec : int -> spec

val count : int
