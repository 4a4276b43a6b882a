type t = {
  registry : Obs.Metrics.registry;
  timeline : Obs.Events.timeline;
  mutable meta : (string * Obs.Json.t) list;  (* reversed *)
}

let create ?timeline () =
  let registry = Obs.Metrics.default in
  Obs.Metrics.reset registry;
  Obs.Metrics.set_enabled registry true;
  let timeline =
    match timeline with Some tl -> tl | None -> Obs.Events.create ()
  in
  { registry; timeline; meta = [] }

let timeline t = t.timeline

let set_meta t key json = t.meta <- (key, json) :: t.meta

let set_counter t name v =
  Obs.Metrics.Counter.set (Obs.Metrics.counter t.registry name) v

let record_cache t ?(name = "cache") (s : Memsim.Cache.stats) =
  let c field v = set_counter t (Printf.sprintf "%s.%s" name field) v in
  c "mutator.refs" s.refs;
  c "mutator.misses" s.misses;
  c "mutator.hits" (Memsim.Cache.mutator_hits s);
  c "mutator.alloc_misses" s.alloc_misses;
  c "mutator.fetches" s.fetches;
  c "mutator.writebacks" (s.writebacks - s.collector_writebacks);
  c "mutator.writes" (s.writes - s.collector_writes);
  c "collector.refs" s.collector_refs;
  c "collector.misses" s.collector_misses;
  c "collector.hits" (Memsim.Cache.collector_hits s);
  c "collector.fetches" s.collector_fetches;
  c "collector.writebacks" s.collector_writebacks;
  c "collector.writes" s.collector_writes

let record_hier t ?(name = "hier") h =
  Array.iteri
    (fun i s -> record_cache t ~name:(Printf.sprintf "%s.l%d" name (i + 1)) s)
    (Memsim.Hier.stats h)

let record_run t (r : Runner.result) =
  set_meta t "workload" (Obs.Json.Str r.workload.Workloads.Workload.name);
  set_meta t "value" (Obs.Json.Str r.value);
  set_meta t "scale" (Obs.Json.Int r.scale);
  let heap = Vscheme.Machine.heap r.machine in
  set_meta t "collector" (Obs.Json.Str (Vscheme.Heap.collector_name heap));
  set_counter t "run.mutator_refs" r.refs;
  set_counter t "run.collector_refs" r.collector_refs;
  set_counter t "run.mutator_insns" r.stats.Vscheme.Machine.mutator_insns;
  set_counter t "run.collector_insns" r.stats.Vscheme.Machine.collector_insns;
  set_counter t "run.collections" r.stats.Vscheme.Machine.collections;
  set_counter t "run.bytes_allocated" r.stats.Vscheme.Machine.bytes_allocated;
  match Vscheme.Machine.collector r.machine with
  | Vscheme.Machine.Generational_collector gc ->
    let s = Vscheme.Gc_generational.stats gc in
    set_counter t "gc.barrier_hits" s.Vscheme.Gc_generational.barrier_hits;
    set_counter t "gc.ssb_overflows" s.Vscheme.Gc_generational.ssb_overflows
  | Vscheme.Machine.Mark_sweep_collector gc ->
    let s = Vscheme.Gc_marksweep.stats gc in
    set_counter t "gc.barrier_hits" s.Vscheme.Gc_marksweep.barrier_hits;
    set_counter t "gc.free_bytes"
      (Vscheme.Gc_marksweep.free_words gc * Memsim.Trace.word_bytes)
  | Vscheme.Machine.No_collector | Vscheme.Machine.Cheney_collector _ -> ()

let record_runner t =
  List.iter (fun (name, n) -> set_counter t name n) (Runner.counters ())

let to_json t =
  Obs.Json.Obj
    [ ("meta", Obs.Json.Obj (List.rev t.meta));
      ("metrics", Obs.Metrics.to_json t.registry);
      ("events",
       Obs.Json.List
         (List.map Obs.Events.event_to_json (Obs.Events.events t.timeline)))
    ]

(* GC pause sizes (in collector references) land in a log-spaced
   histogram so stats exports carry p50/p90/p99 pause figures, not just
   the total. *)
let pause_buckets =
  [| 1e2; 3e2; 1e3; 3e3; 1e4; 3e4; 1e5; 3e5; 1e6; 3e6; 1e7 |]

let observe_gc_pauses t =
  let h =
    Obs.Metrics.histogram t.registry "gc.pause_refs" ~buckets:pause_buckets
      ~help:"collector references per completed collection"
  in
  Obs.Events.iter t.timeline (fun e ->
      if e.Obs.Events.kind = Obs.Events.End && e.Obs.Events.name = "gc.collection"
      then
        List.iter
          (fun (k, a) ->
            match a with
            | Obs.Events.I n when k = "collector_refs" ->
              Obs.Metrics.Histogram.observe_int h n
            | _ -> ())
          e.Obs.Events.args)

(* Rebuild a coarse timeline from a saved access trace: maximal runs
   of collector-phase references become gc.collection spans, stamped
   with the event index as logical time. *)
let of_recording rec_ =
  let tl = Obs.Events.create () in
  let n = Memsim.Recording.length rec_ in
  let in_gc = ref false in
  let gc_refs = ref 0 in
  for i = 0 to n - 1 do
    let _addr, _kind, phase = Memsim.Recording.event rec_ i in
    match (phase : Memsim.Trace.phase) with
    | Memsim.Trace.Collector ->
      if not !in_gc then begin
        in_gc := true;
        gc_refs := 0;
        Obs.Events.span_begin tl ~ts:i ~cat:"gc" "gc.collection"
      end;
      incr gc_refs
    | Memsim.Trace.Mutator ->
      if !in_gc then begin
        in_gc := false;
        Obs.Events.span_end tl ~ts:i ~cat:"gc"
          ~args:[ ("collector_refs", Obs.Events.I !gc_refs) ]
          "gc.collection"
      end
  done;
  if !in_gc then
    Obs.Events.span_end tl ~ts:n ~cat:"gc"
      ~args:[ ("collector_refs", Obs.Events.I !gc_refs) ]
      "gc.collection";
  Obs.Events.instant tl ~ts:n ~cat:"trace"
    ~args:[ ("events", Obs.Events.I n) ]
    "trace.end";
  tl
