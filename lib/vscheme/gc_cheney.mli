(** Cheney-style compacting semispace collector (§6 of the paper).

    The dynamic area is split into two semispaces; allocation is
    linear in the current one and a collection copies every reachable
    object into the other, leaving forwarding pointers behind.  All
    collector reads and writes are traced in the
    {!Memsim.Trace.Collector} phase, and collector work is charged to
    {!Heap.collector_insns} (see the cost constants in the
    implementation). *)

type stats = {
  collections : int;
  words_copied : int;   (** total words moved to to-space *)
  objects_copied : int;
}

type t
(** The collector installed on one heap.  The heap's collection entry
    point and whoever {!install} returns it to (the machine) are its
    only references, so it lives exactly as long as they do. *)

val install : Heap.t -> semispace_words:int -> t
(** Configure the heap's dynamic area as two [semispace_words]
    semispaces and install the collection entry point.

    @raise Invalid_argument if the dynamic area is smaller than two
    semispaces. *)

val required_dynamic_words : semispace_words:int -> int
(** Dynamic-area size needed by {!install}: [2 * semispace_words]. *)

val stats : t -> stats
(** Statistics accumulated by this collector so far. *)
