type write_miss_policy =
  | Write_validate
  | Fetch_on_write

(* The one label table: manifests hash these strings, so they must
   never change. *)
let write_miss_label = function
  | Write_validate -> "write-validate"
  | Fetch_on_write -> "fetch-on-write"

let write_miss_of_label = function
  | "write-validate" -> Some Write_validate
  | "fetch-on-write" -> Some Fetch_on_write
  | _ -> None

type stats = {
  refs : int;
  collector_refs : int;
  misses : int;
  collector_misses : int;
  alloc_misses : int;
  fetches : int;
  collector_fetches : int;
  writebacks : int;
  collector_writebacks : int;
  writes : int;
  collector_writes : int;
}

let mutator_hits (s : stats) = s.refs - s.misses
let collector_hits (s : stats) = s.collector_refs - s.collector_misses
