(** Two-generation copying collector with a sequential store buffer.

    New objects are allocated linearly in a nursery; a {e minor}
    collection promotes every live nursery object into the current old
    semispace, using the stack, globals, registers and the store
    buffer (old-to-new pointers recorded by the write barrier) as
    roots.  When the old space cannot absorb a worst-case promotion, a
    {e major} collection copies the live contents of both generations
    into the other old semispace.

    The §6 configurations map onto this module directly:

    - an {e infrequently-run generational collector} uses a nursery of
      a few megabytes;
    - an {e aggressive collector} (the Wilson/Lam/Moher proposal the
      paper argues against) uses a nursery sized to the cache. *)

type config = {
  nursery_words : int;
  old_words : int;       (** per semispace *)
}
(** The store buffer holds 32768 entries. *)

val config : nursery_words:int -> old_words:int -> config

type stats = {
  minor_collections : int;
  major_collections : int;
  words_promoted : int;      (** nursery words moved to old space *)
  words_copied_major : int;
  barrier_hits : int;        (** stores recorded in the SSB *)
  ssb_overflows : int;
}

type t
(** The collector installed on one heap, reachable only from that
    heap and from whoever {!install} returns it to. *)

val install : Heap.t -> config -> t
(** Lay out the nursery and the two old semispaces in the heap's
    dynamic area, install the write barrier and the collection entry
    point.

    @raise Invalid_argument if the dynamic area is too small. *)

val required_dynamic_words : config -> int
(** [nursery_words + 2 * old_words]. *)

val stats : t -> stats
(** Statistics accumulated by this collector so far. *)
