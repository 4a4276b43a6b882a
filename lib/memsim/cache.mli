(** The vocabulary every cache simulator in the reproduction shares:
    the paper's two write-miss policies and the counter record one
    cache level reports.  The simulator itself is {!Level}; the §4
    block model is described there. *)

type write_miss_policy =
  | Write_validate
      (** write-allocate with one-word sub-blocks: a write miss
          validates just the written word and fetches nothing *)
  | Fetch_on_write  (** every miss fetches the whole block *)

val write_miss_label : write_miss_policy -> string
(** ["write-validate"] or ["fetch-on-write"]: the one spelling used by
    the CLI, manifests (whose content hashes cover it), profiles and
    error messages. *)

val write_miss_of_label : string -> write_miss_policy option
(** Inverse of {!write_miss_label}. *)

type stats = {
  refs : int;               (** mutator references *)
  collector_refs : int;
  misses : int;             (** mutator misses, allocation misses included *)
  collector_misses : int;
  alloc_misses : int;       (** mutator misses caused by initializing stores *)
  fetches : int;            (** mutator block fetches (penalized) *)
  collector_fetches : int;
  writebacks : int;         (** dirty blocks written back on eviction *)
  collector_writebacks : int;
      (** writebacks triggered by collector-phase evictions (included
          in [writebacks]) *)
  writes : int;             (** all word stores (write-through traffic) *)
  collector_writes : int;   (** collector-phase stores (included in [writes]) *)
}

val mutator_hits : stats -> int
(** [refs - misses]: mutator accesses that hit. *)

val collector_hits : stats -> int
