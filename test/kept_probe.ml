(* Probes of the slab pool's kept traces, shared by the test binaries. *)

let pool () = Memsim.Recording.pool_stats ()

(* Take every free slab, each into a one-slab recording the caller
   holds: the next producer finds the free list empty. *)
let drain_free () =
  let held = ref [] in
  while (pool ()).Memsim.Recording.free_slabs > 0 do
    held := Memsim.Recording.create () :: !held
  done;
  !held

(* Evict every unpinned kept trace (earlier tests may have kept some),
   so a test knows the eviction order it sets up. *)
let evict_unpinned () =
  let held = ref [] in
  let rec go () =
    held := drain_free () @ !held;
    if (pool ()).Memsim.Recording.kept_traces > 0 then begin
      let before = (pool ()).Memsim.Recording.evictions in
      held := Memsim.Recording.create () :: !held;
      if (pool ()).Memsim.Recording.evictions > before then go ()
    end
  in
  go ();
  List.iter Memsim.Recording.release !held

(* Whether no kept trace is pinned: eviction then leaves none kept. *)
let no_trace_pinned () =
  evict_unpinned ();
  (pool ()).Memsim.Recording.kept_traces = 0
