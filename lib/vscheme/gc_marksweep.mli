(** Non-compacting mark-sweep generational collector, in the style of
    the Zorn collectors discussed in §2 of the paper.

    New objects are allocated linearly in a nursery; a {e minor}
    collection promotes live nursery objects into the old generation,
    where storage is managed with segregated free lists — objects move
    {e only} when advanced from one generation to the next, never
    afterwards.  When the free lists cannot absorb a worst-case
    promotion, a {e major} collection marks the live heap and sweeps
    the old generation back onto the free lists, rebuilding the store
    buffer from the live old-to-nursery pointers it finds.

    Because promoted objects keep their addresses for life, the old
    generation's reference locality is whatever the free lists produce
    — the contrast with the compacting collectors that experiment A1
    measures. *)

type config = {
  nursery_words : int;
  old_words : int;
}
(** The store buffer holds 32768 entries. *)

val config : nursery_words:int -> old_words:int -> config

type stats = {
  minor_collections : int;
  major_collections : int;
  words_promoted : int;
  words_swept : int;       (** free words recovered by majors *)
  barrier_hits : int;
}

type t
(** The collector installed on one heap, reachable only from that
    heap and from whoever {!install} returns it to. *)

val install : Heap.t -> config -> t
(** Lay out the nursery and the free-list old generation, install the
    write barrier and the collection entry point.

    @raise Invalid_argument if the dynamic area is too small. *)

val required_dynamic_words : config -> int
(** [nursery_words + old_words] — no second semispace, the space
    advantage Zorn claimed for mark-sweep. *)

val free_words : t -> int
(** Words currently on the old generation's free lists. *)

val stats : t -> stats
(** Statistics accumulated by this collector so far. *)
