(* Cache and timing-model tests. *)

let mutator = Memsim.Trace.Mutator
let collector = Memsim.Trace.Collector

(* The paper's direct-mapped cache: a 1-way level. *)
let mk ?(policy = Memsim.Cache.Write_validate) ?(size = 1024) ?(block = 64)
    ?(lpolicy = Memsim.Level.Lru) () =
  Memsim.Level.create
    (Memsim.Level.config ~policy:lpolicy ~write_miss_policy:policy
       ~size_bytes:size ~block_bytes:block ~ways:1 ())

let stats = Memsim.Level.stats

let snap l =
  let b = Buffer.create (Memsim.Level.snapshot_bytes l) in
  Memsim.Level.snapshot l b;
  Buffer.contents b

(* --- Timing ---------------------------------------------------------- *)

let test_penalties () =
  (* 30 + 180 + 30 * ceil(n/16) ns *)
  List.iter
    (fun (block, slow, fast) ->
      Alcotest.(check int)
        (Printf.sprintf "slow %db" block)
        slow
        (Memsim.Timing.miss_penalty_cycles Memsim.Timing.Slow ~block_bytes:block);
      Alcotest.(check int)
        (Printf.sprintf "fast %db" block)
        fast
        (Memsim.Timing.miss_penalty_cycles Memsim.Timing.Fast ~block_bytes:block))
    [ (16, 8, 120); (32, 9, 135); (64, 11, 165); (128, 15, 225); (256, 23, 345) ]

(* A measured run through one direct-mapped one-level hierarchy, with
   only the counters O_gc reads set. *)
let one_level_run ~block ~insns ~collector_insns ~fetches ~collector_fetches =
  let zero = stats (mk ~block ()) in
  { Core.Exp_gc.value = "";
    insns;
    collector_insns;
    collections = 0;
    bytes_allocated = 0;
    hiers =
      [| { Core.Exp_gc.geometry =
             Memsim.Hier.config
               ~levels:
                 [ Memsim.Level.config ~size_bytes:1024 ~block_bytes:block
                     ~ways:1 () ]
               ();
           levels = [| { zero with Memsim.Cache.fetches; collector_fetches } |]
         } |]
  }

let test_overhead_math () =
  (* O_cache = M * P / I *)
  let o =
    Memsim.Timing.cache_overhead Memsim.Timing.Slow ~block_bytes:16
      ~fetches:1000 ~instructions:160000
  in
  Alcotest.(check (float 1e-9)) "cache overhead" 0.05 o;
  (* O_gc can be negative when the collector removes program misses *)
  let baseline =
    one_level_run ~block:16 ~insns:160000 ~collector_insns:0 ~fetches:1000
      ~collector_fetches:0
  in
  let collected =
    one_level_run ~block:16 ~insns:160000 ~collector_insns:0 ~fetches:0
      ~collector_fetches:0
  in
  let gc = Core.Exp_gc.o_gc Memsim.Timing.Slow ~baseline ~collected 0 in
  Alcotest.(check (float 1e-9)) "negative O_gc" (-0.05) gc

(* --- Basic cache behaviour ------------------------------------------- *)

let test_read_miss_then_hit () =
  let c = mk () in
  Memsim.Level.access c 0 Memsim.Trace.Read mutator;
  Memsim.Level.access c 0 Memsim.Trace.Read mutator;
  Memsim.Level.access c 4 Memsim.Trace.Read mutator;
  let s = stats c in
  Alcotest.(check int) "refs" 3 s.Memsim.Cache.refs;
  Alcotest.(check int) "one miss" 1 s.Memsim.Cache.misses;
  Alcotest.(check int) "one fetch" 1 s.Memsim.Cache.fetches

let test_direct_mapped_conflict () =
  let c = mk ~size:1024 ~block:64 () in
  (* addresses 0 and 1024 share cache block 0 *)
  Memsim.Level.access c 0 Memsim.Trace.Read mutator;
  Memsim.Level.access c 1024 Memsim.Trace.Read mutator;
  Memsim.Level.access c 0 Memsim.Trace.Read mutator;
  let s = stats c in
  Alcotest.(check int) "three misses" 3 s.Memsim.Cache.misses;
  (* non-conflicting address in another set *)
  Memsim.Level.access c 64 Memsim.Trace.Read mutator;
  Memsim.Level.access c 64 Memsim.Trace.Read mutator;
  Alcotest.(check int) "one more miss" 4 (stats c).Memsim.Cache.misses

let test_write_validate_no_fetch () =
  let c = mk ~policy:Memsim.Cache.Write_validate () in
  Memsim.Level.access c 0 Memsim.Trace.Alloc_write mutator;
  Memsim.Level.access c 4 Memsim.Trace.Alloc_write mutator;
  let s = stats c in
  Alcotest.(check int) "one miss (tag install)" 1 s.Memsim.Cache.misses;
  Alcotest.(check int) "alloc miss" 1 s.Memsim.Cache.alloc_misses;
  Alcotest.(check int) "no fetches" 0 s.Memsim.Cache.fetches;
  (* reading back the written words hits *)
  Memsim.Level.access c 0 Memsim.Trace.Read mutator;
  Memsim.Level.access c 4 Memsim.Trace.Read mutator;
  Alcotest.(check int) "still no fetch" 0 (stats c).Memsim.Cache.fetches

let test_write_validate_subblock () =
  let c = mk ~policy:Memsim.Cache.Write_validate () in
  Memsim.Level.access c 0 Memsim.Trace.Alloc_write mutator;
  (* word 1 of the same block was never written: reading it fetches *)
  Memsim.Level.access c 8 Memsim.Trace.Read mutator;
  let s = stats c in
  Alcotest.(check int) "read of invalid word misses" 2 s.Memsim.Cache.misses;
  Alcotest.(check int) "and fetches" 1 s.Memsim.Cache.fetches;
  (* after the fetch the whole block is valid *)
  Memsim.Level.access c 60 Memsim.Trace.Read mutator;
  Alcotest.(check int) "rest of block now valid" 2 (stats c).Memsim.Cache.misses

let test_word63_validates () =
  (* Regression: word 63 of a 256-byte block needs the 64th valid bit. *)
  let c = mk ~size:4096 ~block:256 () in
  Memsim.Level.access c 252 Memsim.Trace.Write mutator;
  Memsim.Level.access c 252 Memsim.Trace.Read mutator;
  let s = stats c in
  Alcotest.(check int) "write installs, read hits" 1 s.Memsim.Cache.misses;
  Alcotest.(check int) "no fetch" 0 s.Memsim.Cache.fetches;
  (* and word 32, the low bit of the high mask *)
  Memsim.Level.access c 128 Memsim.Trace.Write mutator;
  Memsim.Level.access c 128 Memsim.Trace.Read mutator;
  Alcotest.(check int) "word 32 hits too" 1 (stats c).Memsim.Cache.misses

let test_fetch_on_write () =
  let c = mk ~policy:Memsim.Cache.Fetch_on_write () in
  Memsim.Level.access c 0 Memsim.Trace.Alloc_write mutator;
  let s = stats c in
  Alcotest.(check int) "write miss fetches" 1 s.Memsim.Cache.fetches;
  (* whole block valid after the fetch *)
  Memsim.Level.access c 32 Memsim.Trace.Read mutator;
  Alcotest.(check int) "read hits" 1 (stats c).Memsim.Cache.misses

let test_collector_phase () =
  let c = mk ~policy:Memsim.Cache.Write_validate () in
  Memsim.Level.access c 0 Memsim.Trace.Write collector;
  let s = stats c in
  Alcotest.(check int) "collector refs" 1 s.Memsim.Cache.collector_refs;
  Alcotest.(check int) "no mutator refs" 0 s.Memsim.Cache.refs;
  (* collector writes fetch (fetch-on-write during collection) *)
  Alcotest.(check int) "collector fetch" 1 s.Memsim.Cache.collector_fetches;
  Alcotest.(check int) "collector miss" 1 s.Memsim.Cache.collector_misses

let test_writebacks () =
  let c = mk ~size:1024 ~block:64 () in
  Memsim.Level.access c 0 Memsim.Trace.Write mutator;
  (* evicting a dirty block writes it back *)
  Memsim.Level.access c 1024 Memsim.Trace.Read mutator;
  Alcotest.(check int) "one writeback" 1 (stats c).Memsim.Cache.writebacks;
  (* a clean eviction does not *)
  Memsim.Level.access c 2048 Memsim.Trace.Read mutator;
  Alcotest.(check int) "still one" 1 (stats c).Memsim.Cache.writebacks;
  Alcotest.(check int) "write count" 1 (stats c).Memsim.Cache.writes

let test_per_phase_counters () =
  let c = mk ~size:1024 ~block:64 () in
  (* a mutator store dirties block 0; the collector then evicts it, so
     the writeback is charged to the collector phase *)
  Memsim.Level.access c 0 Memsim.Trace.Write mutator;
  Memsim.Level.access c 1024 Memsim.Trace.Read collector;
  let s = stats c in
  Alcotest.(check int) "one writeback" 1 s.Memsim.Cache.writebacks;
  Alcotest.(check int) "charged to collector" 1
    s.Memsim.Cache.collector_writebacks;
  Alcotest.(check int) "mutator store only" 0 s.Memsim.Cache.collector_writes;
  (* collector stores are counted within the write total *)
  Memsim.Level.access c 2048 Memsim.Trace.Write collector;
  Memsim.Level.access c 2048 Memsim.Trace.Read collector;
  let s = stats c in
  Alcotest.(check int) "collector write" 1 s.Memsim.Cache.collector_writes;
  Alcotest.(check int) "writes include both phases" 2 s.Memsim.Cache.writes;
  (* hit decompositions *)
  Alcotest.(check int) "mutator hits" 0 (Memsim.Cache.mutator_hits s);
  Alcotest.(check int) "collector hits" 1 (Memsim.Cache.collector_hits s);
  Alcotest.(check int) "phases partition refs" 4
    (s.Memsim.Cache.refs + s.Memsim.Cache.collector_refs)

let test_per_phase_mutator_writeback () =
  let c = mk ~size:1024 ~block:64 () in
  Memsim.Level.access c 0 Memsim.Trace.Write mutator;
  Memsim.Level.access c 1024 Memsim.Trace.Read mutator;
  let s = stats c in
  Alcotest.(check int) "mutator eviction writes back" 1
    s.Memsim.Cache.writebacks;
  Alcotest.(check int) "not charged to collector" 0
    s.Memsim.Cache.collector_writebacks

(* A set-associative LRU cache: a {!Memsim.Level} under exact LRU. *)
let mk_assoc ?(policy = Memsim.Cache.Write_validate) ?(size = 1024)
    ?(block = 64) ~ways () =
  Memsim.Level.create
    (Memsim.Level.config ~policy:Memsim.Level.Lru ~write_miss_policy:policy
       ~size_bytes:size ~block_bytes:block ~ways ())

let test_assoc_per_phase () =
  let a = mk_assoc ~size:1024 ~block:64 ~ways:2 () in
  (* fill both ways of set 0 with dirty collector stores, then force an
     LRU eviction from the mutator *)
  Memsim.Level.access a 0 Memsim.Trace.Write collector;
  Memsim.Level.access a 512 Memsim.Trace.Write collector;
  Memsim.Level.access a 1024 Memsim.Trace.Write mutator;
  let s = Memsim.Level.stats a in
  Alcotest.(check int) "collector writes" 2 s.Memsim.Cache.collector_writes;
  Alcotest.(check int) "writes total" 3 s.Memsim.Cache.writes;
  Alcotest.(check int) "mutator eviction" 1 s.Memsim.Cache.writebacks;
  Alcotest.(check int) "writeback charged to mutator" 0
    s.Memsim.Cache.collector_writebacks

let test_alloc_miss_classification () =
  let c = mk () in
  Memsim.Level.access c 0 Memsim.Trace.Alloc_write mutator;
  Memsim.Level.access c 1024 Memsim.Trace.Write mutator;
  let s = stats c in
  Alcotest.(check int) "two misses" 2 s.Memsim.Cache.misses;
  Alcotest.(check int) "one alloc miss" 1 s.Memsim.Cache.alloc_misses

(* Per-block statistics live in the §7 analyzer, which wraps the
   level's per-event path; collector events are not counted. *)
let test_block_stats () =
  let a = Analysis.Activity.create (mk ()) in
  let sink = Analysis.Activity.sink a in
  sink.Memsim.Trace.access 0 Memsim.Trace.Read mutator;
  sink.Memsim.Trace.access 0 Memsim.Trace.Read mutator;
  sink.Memsim.Trace.access 64 Memsim.Trace.Alloc_write mutator;
  sink.Memsim.Trace.access 128 Memsim.Trace.Read collector;
  let r = Analysis.Activity.analyze a in
  let p = r.Analysis.Activity.points in
  (* points ascend by refs: block 1 (one ref), then block 0 (two) *)
  let last = p.(Array.length p - 1) and prev = p.(Array.length p - 2) in
  Alcotest.(check int) "block 0 refs" 2 last.Analysis.Activity.refs;
  Alcotest.(check int) "block 0 misses" 1 last.Analysis.Activity.misses;
  Alcotest.(check int) "block 1 alloc misses" 1
    prev.Analysis.Activity.alloc_misses;
  Alcotest.(check int) "block 1 misses excl alloc" 0
    prev.Analysis.Activity.misses;
  Alcotest.(check int) "collector refs not counted" 3
    r.Analysis.Activity.total_refs

let test_block_stats_guard () =
  (* per-line counts are defined for direct-mapped levels only *)
  let two_way =
    Memsim.Level.create
      (Memsim.Level.config ~size_bytes:1024 ~block_bytes:64 ~ways:2 ())
  in
  Alcotest.check_raises "requires a 1-way level"
    (Invalid_argument "Activity.create: the level is not direct-mapped")
    (fun () -> ignore (Analysis.Activity.create two_way))

(* Misses are observed by the §7 miss plot from the level's counters:
   each miss, allocation or not and of either phase, marks its line;
   hits mark nothing. *)
let test_miss_hook () =
  let plot =
    Analysis.Miss_plot.create ~level:(mk ()) ~rows:16 ~refs_per_col:3 ()
  in
  let sink = Analysis.Miss_plot.sink plot in
  sink.Memsim.Trace.access 0 Memsim.Trace.Alloc_write mutator;
  sink.Memsim.Trace.access 0 Memsim.Trace.Write mutator;
  sink.Memsim.Trace.access 200 Memsim.Trace.Read collector;
  sink.Memsim.Trace.access 200 Memsim.Trace.Read mutator;
  let out = Format.asprintf "%a" (fun ppf p -> Analysis.Miss_plot.render ppf p) plot in
  let rows =
    List.filter
      (fun l -> String.length l > 0 && l.[0] = '|')
      (String.split_on_char '\n' out)
  in
  Alcotest.(check (list string)) "lines 0 and 3 missed"
    ("|." :: "|" :: "|" :: "|." :: List.init 12 (fun _ -> "|"))
    rows

let test_create_validation () =
  let bad f = match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  bad (fun () -> mk ~size:1000 ());
  bad (fun () -> mk ~block:48 ());
  bad (fun () -> mk ~size:32 ~block:64 ());
  bad (fun () -> mk ~size:4096 ~block:512 ());
  bad (fun () -> mk ~block:2 ())

(* --- Sweep ------------------------------------------------------------ *)

let test_sweep () =
  let sw =
    Memsim.Sweep.create
      (Memsim.Sweep.grid ~cache_sizes:[ 1024; 2048 ] ~block_sizes:[ 32; 64 ] ())
  in
  Alcotest.(check int) "four caches" 4 (Array.length (Memsim.Sweep.hiers sw));
  let sink = Memsim.Sweep.sink sw in
  sink.Memsim.Trace.access 0 Memsim.Trace.Read mutator;
  List.iter
    (fun (_, s) -> Alcotest.(check int) "each saw the ref" 1 s.Memsim.Cache.refs)
    (Memsim.Sweep.results sw)

let test_size_labels () =
  let label n = Format.asprintf "%a" Memsim.Sweep.pp_size n in
  Alcotest.(check string) "kb" "64k" (label (64 * 1024));
  Alcotest.(check string) "mb" "2m" (label (2 * 1024 * 1024));
  Alcotest.(check string) "bytes" "48b" (label 48);
  (* non-power-of-two counts are not mislabeled *)
  Alcotest.(check string) "1.5m, not 1536k" "1.5m" (label (3 * 512 * 1024));
  Alcotest.(check string) "2.25m" "2.25m" (label (9 * 256 * 1024));
  Alcotest.(check string) "odd kilobytes stay in k" "1025k" (label (1025 * 1024));
  Alcotest.(check string) "non-multiples stay exact" "1536b" (label 1536);
  Alcotest.(check string) "zero" "0b" (label 0)

(* --- Set-associative cache --------------------------------------------- *)

let test_assoc_lru () =
  (* 2-way, one set worth of conflict: A, B, A then C must evict B. *)
  let c = mk_assoc ~size:128 ~block:64 ~ways:2 () in
  let a = 0 and b = 128 and cc = 256 in
  Memsim.Level.access c a Memsim.Trace.Read mutator;
  Memsim.Level.access c b Memsim.Trace.Read mutator;
  Memsim.Level.access c a Memsim.Trace.Read mutator;
  Memsim.Level.access c cc Memsim.Trace.Read mutator;
  (* A must still hit; B must miss. *)
  Memsim.Level.access c a Memsim.Trace.Read mutator;
  Alcotest.(check int) "A survives (LRU evicts B)" 3
    (Memsim.Level.stats c).Memsim.Cache.misses;
  Memsim.Level.access c b Memsim.Trace.Read mutator;
  Alcotest.(check int) "B was evicted" 4
    (Memsim.Level.stats c).Memsim.Cache.misses

let test_assoc_removes_conflicts () =
  (* Two addresses that thrash a direct-mapped cache coexist in a
     2-way set. *)
  let direct = mk ~size:1024 ~block:64 () in
  let two_way = mk_assoc ~size:1024 ~block:64 ~ways:2 () in
  for _ = 1 to 100 do
    List.iter
      (fun addr ->
        Memsim.Level.access direct addr Memsim.Trace.Read mutator;
        Memsim.Level.access two_way addr Memsim.Trace.Read mutator)
      [ 0; 1024 ]
  done;
  Alcotest.(check int) "direct-mapped thrashes" 200
    (stats direct).Memsim.Cache.misses;
  Alcotest.(check int) "two-way holds both" 2
    (Memsim.Level.stats two_way).Memsim.Cache.misses

let test_assoc_validation () =
  let bad f = match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  bad (fun () -> mk_assoc ~ways:3 ());
  bad (fun () -> mk_assoc ~ways:32 ());
  bad (fun () -> mk_assoc ~size:64 ~block:64 ~ways:2 ())

(* --- Two-level hierarchy ------------------------------------------------ *)

(* Two direct-mapped levels with a 60ns L2, on the hooked per-event
   engine so single accesses can be driven; [~fused:true] builds the
   chunk-only fused engine over the same levels. *)
let direct_level size =
  Memsim.Level.config ~size_bytes:size ~block_bytes:64 ~ways:1 ()

let mk_hierarchy ?(fused = false) ?(l1 = 512) ?(l2 = 4096) () =
  Memsim.Hier.create ~fused
    (Memsim.Hier.config ~hit_ns:[ 60.0 ]
       ~levels:[ direct_level l1; direct_level l2 ]
       ())

let l1_stats h = Memsim.Hier.level_stats h 0
let l2_stats h = Memsim.Hier.level_stats h 1

let test_hierarchy_refill () =
  let h = mk_hierarchy () in
  (* first read misses both levels *)
  Memsim.Hier.access h 0 Memsim.Trace.Read mutator;
  Alcotest.(check int) "L1 fetch" 1
    (l1_stats h).Memsim.Cache.fetches;
  Alcotest.(check int) "L2 fetch" 1
    (l2_stats h).Memsim.Cache.fetches;
  (* evict block 0 from L1 (conflict at 512) and re-read: L2 absorbs *)
  Memsim.Hier.access h 512 Memsim.Trace.Read mutator;
  Memsim.Hier.access h 0 Memsim.Trace.Read mutator;
  Alcotest.(check int) "three L1 fetches" 3
    (l1_stats h).Memsim.Cache.fetches;
  Alcotest.(check int) "only two L2 fetches (one L2 hit)" 2
    (l2_stats h).Memsim.Cache.fetches

let test_hierarchy_writeback_path () =
  let h = mk_hierarchy () in
  (* dirty a block in L1, evict it, and re-read: the write-back must
     have installed it in L2 so no memory fetch is needed *)
  Memsim.Hier.access h 0 Memsim.Trace.Write mutator;
  Memsim.Hier.access h 512 Memsim.Trace.Read mutator;
  (* reading a different word of the written-back block: the whole
     block must be valid in L2, so only the 512 read ever fetched *)
  Memsim.Hier.access h 8 Memsim.Trace.Read mutator;
  Alcotest.(check int) "L1 write-back happened" 1
    (l1_stats h).Memsim.Cache.writebacks;
  Alcotest.(check int) "L2 fetched only for the read at 512" 1
    (l2_stats h).Memsim.Cache.fetches

let test_hierarchy_overhead () =
  let h = mk_hierarchy () in
  Memsim.Hier.access h 0 Memsim.Trace.Read mutator;
  (* disjoint charging: the lone L1 fetch also misses L2, so it pays
     only the memory penalty (330ns) — no L2-hit service — over 100
     slow-processor instructions at 30ns each *)
  let o = Memsim.Hier.overhead h Memsim.Timing.Slow ~instructions:100 in
  Alcotest.(check (float 1e-9)) "overhead math" 0.11 o;
  (* evict block 0 from L1 and re-read: that fetch hits L2 and adds
     the 60ns L2 service on top *)
  Memsim.Hier.access h 512 Memsim.Trace.Read mutator;
  Memsim.Hier.access h 0 Memsim.Trace.Read mutator;
  let o = Memsim.Hier.overhead h Memsim.Timing.Slow ~instructions:100 in
  Alcotest.(check (float 1e-9)) "disjoint L2 hit charge" 0.24 o

(* A pseudo-random event stream delivered per-event through the hooked
   levels and via the packed chunk codec through the fused miss-stream
   engine must leave both levels in identical states. *)
let test_hierarchy_chunk_equiv () =
  let events =
    let st = Random.State.make [| 0x4c32 |] in
    List.init 4096 (fun _ ->
        let addr = Random.State.int st 8192 * 4 in
        let kind =
          match Random.State.int st 3 with
          | 0 -> Memsim.Trace.Read
          | 1 -> Memsim.Trace.Write
          | _ -> Memsim.Trace.Alloc_write
        in
        let phase = if Random.State.int st 4 = 0 then collector else mutator in
        (addr, kind, phase))
  in
  let per_event = mk_hierarchy () in
  List.iter (fun (a, k, p) -> Memsim.Hier.access per_event a k p) events;
  let chunked = mk_hierarchy ~fused:true () in
  let buf = Memsim.Chunk.create_buf 512 in
  let n = ref 0 in
  let flush () =
    Memsim.Hier.access_chunk chunked buf 0 !n;
    n := 0
  in
  List.iter
    (fun (a, k, p) ->
      Bigarray.Array1.set buf !n (Memsim.Chunk.pack a k p);
      incr n;
      if !n = 512 then flush ())
    events;
  flush ();
  Alcotest.(check bool) "L1 stats equal" true
    (l1_stats per_event = l1_stats chunked);
  Alcotest.(check bool) "L2 stats equal" true
    (l2_stats per_event = l2_stats chunked)

(* A dirty line evicted from L1 lands in L2 dirty; evicting it from L2
   in turn must count an L2 write-back (the dirt propagates down the
   hierarchy, not evaporates). *)
let test_hierarchy_writeback_propagation () =
  let h = mk_hierarchy ~l1:128 ~l2:256 () in
  (* dirty block 0 in L1, evict it to L2 via the conflicting read at
     128 (L1 has 2 sets of 64b)... *)
  Memsim.Hier.access h 0 Memsim.Trace.Write mutator;
  Memsim.Hier.access h 128 Memsim.Trace.Read mutator;
  Alcotest.(check int) "L1 evicted the dirty block" 1
    (l1_stats h).Memsim.Cache.writebacks;
  Alcotest.(check int) "L2 still clean" 0
    (l2_stats h).Memsim.Cache.writebacks;
  (* ...then knock the written-back block out of L2 (4 sets of 64b:
     256 conflicts with 0) through reads that miss both levels *)
  Memsim.Hier.access h 256 Memsim.Trace.Read mutator;
  Alcotest.(check int) "L2 wrote the dirty block back to memory" 1
    (l2_stats h).Memsim.Cache.writebacks

let test_hierarchy_validation () =
  match
    Memsim.Hier.create
      (Memsim.Hier.config ~hit_ns:[ 60.0 ]
         ~levels:
           [ direct_level 512;
             Memsim.Level.config ~size_bytes:4096 ~block_bytes:32 ~ways:1 ()
           ]
         ())
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* --- Snapshot / restore -------------------------------------------------- *)

let random_events seed n =
  let st = Random.State.make [| seed |] in
  List.init n (fun _ ->
      let addr = Random.State.int st 4096 * 4 in
      let kind =
        match Random.State.int st 3 with
        | 0 -> Memsim.Trace.Read
        | 1 -> Memsim.Trace.Write
        | _ -> Memsim.Trace.Alloc_write
      in
      let phase = if Random.State.int st 4 = 0 then collector else mutator in
      (addr, kind, phase))

(* Snapshotting mid-stream and restoring into a fresh cache must make
   the remainder of the stream land identically: contents, per-word
   validity, dirt and counters all survive the round-trip. *)
let test_snapshot_roundtrip () =
  let first = random_events 0x5afe 2000 and rest = random_events 0xcafe 2000 in
  let live = mk () in
  List.iter (fun (a, k, p) -> Memsim.Level.access live a k p) first;
  let buf = Buffer.create 0 in
  Memsim.Level.snapshot live buf;
  Alcotest.(check int) "declared snapshot size" (Memsim.Level.snapshot_bytes live)
    (Buffer.length buf);
  let restored = mk () in
  let next = Memsim.Level.restore restored (Buffer.to_bytes buf) 0 in
  Alcotest.(check int) "restore consumed it all" (Buffer.length buf) next;
  Alcotest.(check bool) "counters survive" true (stats live = stats restored);
  List.iter
    (fun (a, k, p) ->
      Memsim.Level.access live a k p;
      Memsim.Level.access restored a k p)
    rest;
  Alcotest.(check bool) "identical continuation" true
    (stats live = stats restored)

let test_snapshot_geometry_guard () =
  let buf = Buffer.create 0 in
  Memsim.Level.snapshot (mk ~size:1024 ~block:64 ()) buf;
  let b = Buffer.to_bytes buf in
  (match Memsim.Level.restore (mk ~size:2048 ~block:64 ()) b 0 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "expected Invalid_argument on a size mismatch");
  (match Memsim.Level.restore (mk ~size:1024 ~block:32 ()) b 0 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "expected Invalid_argument on a block mismatch");
  match
    Memsim.Level.restore (mk ~size:1024 ~block:64 ()) (Bytes.sub b 0 40) 0
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on truncation"

(* A snapshot whose line state no access could produce is refused, at
   the byte that is wrong, before any of it is loaded: a dirty byte of
   2, say, would otherwise make the next eviction skip its write-back. *)
let test_restore_rejects_corrupt_lines () =
  let c = mk ~size:1024 ~block:64 () in
  Memsim.Level.access c 0 Memsim.Trace.Write mutator;
  let good = Bytes.of_string (snap c) in
  (* magic, 6 geometry words and 11 counters, then 16 tags, 16 low
     and 16 high valid masks, and 16 dirty bytes *)
  let tags = 8 * 18 in
  let lo = tags + (8 * 16) in
  let hi = lo + (8 * 16) in
  let dirty = hi + (8 * 16) in
  let expect ?(level = fun () -> mk ~size:1024 ~block:64 ()) ?(good = good)
      what at corrupt =
    let b = Bytes.copy good in
    corrupt b;
    match Memsim.Level.restore (level ()) b 0 with
    | exception Invalid_argument msg ->
      let needle = Printf.sprintf "byte %d:" at in
      Alcotest.(check bool)
        (Printf.sprintf "%s located (%s)" what msg)
        true
        (let n = String.length needle in
         let rec scan i =
           i + n <= String.length msg
           && (String.sub msg i n = needle || scan (i + 1))
         in
         scan 0)
    | _ -> Alcotest.failf "%s accepted" what
  in
  expect "tag below -1" tags (fun b -> Bytes.set_int64_le b tags (-2L));
  expect "low valid bits beyond a 16-word block" lo (fun b ->
      Bytes.set_int64_le b lo 0x10000L);
  expect "high valid bits on a 16-word block" (hi + 8) (fun b ->
      Bytes.set_int64_le b (hi + 8) 1L);
  expect "dirty byte 2" dirty (fun b -> Bytes.set b dirty '\002');
  (* block 16 indexes set 0 of the 16, not set 1 *)
  expect "tag filed in a set it does not index" (tags + 8) (fun b ->
      Bytes.set_int64_le b (tags + 8) 16L);
  (* 2 ways, 8 sets: block 0 sits in one way of set 0; copying its tag
     into the other way makes one block resident twice *)
  let two_way () =
    Memsim.Level.create
      (Memsim.Level.config ~size_bytes:1024 ~block_bytes:64 ~ways:2 ())
  in
  let c2 = two_way () in
  Memsim.Level.access c2 0 Memsim.Trace.Write mutator;
  let good2 = Bytes.of_string (snap c2) in
  expect ~level:two_way ~good:good2 "one block in two ways of a set"
    (tags + 8) (fun b ->
      Bytes.set_int64_le b tags 0L;
      Bytes.set_int64_le b (tags + 8) 0L);
  (* the untouched snapshot restores, and evicting its dirty line
     writes it back *)
  let r = mk ~size:1024 ~block:64 () in
  ignore (Memsim.Level.restore r good 0 : int);
  Memsim.Level.access r 1024 Memsim.Trace.Read mutator;
  Alcotest.(check int) "one write-back" 1 (stats r).Memsim.Cache.writebacks

(* --- Closed-form ground truth -------------------------------------------- *)

(* Cyclic sweeps whose miss, fetch and write-back counts follow from
   the geometry alone (the CacheTrace validation idea): an oracle that
   neither the per-event path nor the chunk loop wrote.  [w] bytes are
   swept word by word, [passes] times, through a [c]-byte 1-way level
   of [b]-byte blocks. *)
let passes = 3

let cyclic_sweep ~w kind =
  let rec_ = Memsim.Recording.create () in
  let sink = Memsim.Recording.sink rec_ in
  for _ = 1 to passes do
    for word = 0 to (w / 4) - 1 do
      sink.Memsim.Trace.access (word * 4) kind mutator
    done
  done;
  rec_

(* The same recording through the per-event path, the chunk loop and
   a sweep-grid cell. *)
let three_paths ?(policy = Memsim.Cache.Write_validate) ~c ~b recording =
  let per_event = mk ~policy ~size:c ~block:b () in
  Memsim.Recording.replay recording (Memsim.Level.sink per_event);
  let chunked = mk ~policy ~size:c ~block:b () in
  Memsim.Recording.iter_chunks recording (fun buf len ->
      Memsim.Level.access_chunk chunked buf 0 len);
  let sweep =
    Memsim.Sweep.create
      (Memsim.Sweep.grid ~write_miss_policy:policy ~cache_sizes:[ c ]
         ~block_sizes:[ b ] ())
  in
  Memsim.Sweep.hier_run_serial (Memsim.Sweep.hiers sweep) recording;
  [ ("per-event", stats per_event); ("chunk", stats chunked);
    ("sweep", stats (Memsim.Hier.level (Memsim.Sweep.hiers sweep).(0) 0))
  ]

let ground_truth_geometries =
  List.concat_map
    (fun c -> List.map (fun b -> (c, b)) [ 16; 64; 256 ])
    [ 8 * 1024; 64 * 1024 ]

let check_closed_form ~what ~c ~b ~w paths expected =
  List.iter
    (fun (path, (s : Memsim.Cache.stats)) ->
      List.iter
        (fun (field, got, want) ->
          Alcotest.(check int)
            (Printf.sprintf "%s c=%d b=%d w=%d %s: %s" what c b w path field)
            want got)
        (expected s))
    paths

let test_ground_truth_reads_fit () =
  List.iter
    (fun (c, b) ->
      List.iter
        (fun w ->
          let r = cyclic_sweep ~w Memsim.Trace.Read in
          (* only the first pass misses, once per block *)
          check_closed_form ~what:"reads W<=C" ~c ~b ~w (three_paths ~c ~b r)
            (fun s ->
              [ ("refs", s.Memsim.Cache.refs, passes * w / 4);
                ("misses", s.Memsim.Cache.misses, w / b);
                ("fetches", s.Memsim.Cache.fetches, w / b);
                ("writebacks", s.Memsim.Cache.writebacks, 0) ]))
        [ c / 2; c ])
    ground_truth_geometries

let test_ground_truth_reads_double () =
  List.iter
    (fun (c, b) ->
      let w = 2 * c in
      let r = cyclic_sweep ~w Memsim.Trace.Read in
      (* each block is evicted by its alias C bytes away before it is
         swept again: every block visit of every pass misses *)
      check_closed_form ~what:"reads W=2C" ~c ~b ~w (three_paths ~c ~b r)
        (fun s ->
          [ ("misses", s.Memsim.Cache.misses, passes * w / b);
            ("fetches", s.Memsim.Cache.fetches, passes * w / b);
            ("writebacks", s.Memsim.Cache.writebacks, 0) ]))
    ground_truth_geometries

let test_ground_truth_writes_validate () =
  List.iter
    (fun (c, b) ->
      List.iter
        (fun w ->
          let r = cyclic_sweep ~w Memsim.Trace.Write in
          (* write-validate never fetches.  Within capacity only the
             first pass misses and nothing is evicted; at 2C every block
             visit misses, and every miss but the first C/B (which fill
             empty lines) evicts a dirty block *)
          let visits = if w <= c then w / b else passes * w / b in
          let writebacks = if w <= c then 0 else visits - (c / b) in
          check_closed_form ~what:"writes" ~c ~b ~w (three_paths ~c ~b r)
            (fun s ->
              [ ("writes", s.Memsim.Cache.writes, passes * w / 4);
                ("misses", s.Memsim.Cache.misses, visits);
                ("alloc misses", s.Memsim.Cache.alloc_misses, 0);
                ("fetches", s.Memsim.Cache.fetches, 0);
                ("writebacks", s.Memsim.Cache.writebacks, writebacks) ]))
        [ c; 2 * c ])
    ground_truth_geometries

(* --- Recording ----------------------------------------------------------- *)

let test_recording_replay () =
  let rec_ = Memsim.Recording.create () in
  let sink = Memsim.Recording.sink rec_ in
  sink.Memsim.Trace.access 0 Memsim.Trace.Alloc_write mutator;
  sink.Memsim.Trace.access 64 Memsim.Trace.Read collector;
  sink.Memsim.Trace.access 4 Memsim.Trace.Write mutator;
  Alcotest.(check int) "length" 3 (Memsim.Recording.length rec_);
  let a, k, p = Memsim.Recording.event rec_ 1 in
  Alcotest.(check int) "event addr" 64 a;
  Alcotest.(check bool) "event kind" true (k = Memsim.Trace.Read);
  Alcotest.(check bool) "event phase" true (p = Memsim.Trace.Collector);
  (* replay into a cache gives the same result as live feeding *)
  let live = mk () in
  Memsim.Level.access live 0 Memsim.Trace.Alloc_write mutator;
  Memsim.Level.access live 64 Memsim.Trace.Read collector;
  Memsim.Level.access live 4 Memsim.Trace.Write mutator;
  let replayed = mk () in
  Memsim.Recording.replay rec_ (Memsim.Level.sink replayed);
  Alcotest.(check bool) "replay = live" true (stats live = stats replayed)

(* [Recording.replay] decodes each packed word in place: it must hand
   the sink exactly what [Recording.event] decodes, for every kind and
   phase, and still reject kind code 3. *)
let test_recording_replay_decode () =
  let rec_ = Memsim.Recording.create ~initial_capacity:16 () in
  let sink = Memsim.Recording.sink rec_ in
  let n = 40 in
  for i = 0 to n - 1 do
    sink.Memsim.Trace.access
      ((i * 4) + (1 lsl 40))
      (List.nth
         [ Memsim.Trace.Read; Memsim.Trace.Write; Memsim.Trace.Alloc_write ]
         (i mod 3))
      (if i land 1 = 0 then mutator else collector)
  done;
  let seen = ref [] in
  Memsim.Recording.replay rec_
    { Memsim.Trace.access = (fun a k p -> seen := (a, k, p) :: !seen) };
  Alcotest.(check bool) "replay = event" true
    (List.rev !seen = List.init n (Memsim.Recording.event rec_));
  let bad = Memsim.Recording.create ~initial_capacity:16 () in
  let buf, cur = Memsim.Recording.checkout bad in
  Bigarray.Array1.set buf cur ((64 lsl 3) lor (3 lsl 1));
  Memsim.Recording.set_tail bad (cur + 1);
  match Memsim.Recording.replay bad Memsim.Trace.null with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "kind code 3 must be rejected on replay"

let test_recording_file_roundtrip () =
  let rec_ = Memsim.Recording.create ~initial_capacity:4 () in
  let sink = Memsim.Recording.sink rec_ in
  for i = 0 to 99 do
    sink.Memsim.Trace.access (i * 4)
      (if i land 1 = 0 then Memsim.Trace.Read else Memsim.Trace.Alloc_write)
      (if i land 3 = 0 then collector else mutator)
  done;
  let path = Filename.temp_file "repro" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Memsim.Recording.save rec_ path;
      let back = Memsim.Recording.load path in
      Alcotest.(check int) "length survives" 100 (Memsim.Recording.length back);
      for i = 0 to 99 do
        Alcotest.(check bool)
          (Printf.sprintf "event %d survives" i)
          true
          (Memsim.Recording.event rec_ i = Memsim.Recording.event back i)
      done)

let test_recording_bad_file () =
  let path = Filename.temp_file "repro" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "not a trace file at all";
      close_out oc;
      match Memsim.Recording.load path with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "expected Failure")

let test_recording_truncated_file () =
  let rec_ = Memsim.Recording.create () in
  let sink = Memsim.Recording.sink rec_ in
  for i = 0 to 99 do
    sink.Memsim.Trace.access (i * 4) Memsim.Trace.Read mutator
  done;
  let path = Filename.temp_file "repro" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Memsim.Recording.save ~format:Memsim.Recording.V3 rec_ path;
      (* cut the file mid-payload: the header still declares 100 events *)
      let ic = open_in_bin path in
      let keep = really_input_string ic (24 + (8 * 50)) in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc keep;
      close_out oc;
      (match Memsim.Recording.load path with
       | exception Failure msg ->
         Alcotest.(check bool)
           ("truncation reported: " ^ msg)
           true
           (String.length msg > 0)
       | _ -> Alcotest.fail "truncated file must be rejected");
      (* trailing garbage is rejected too *)
      let oc = open_out_bin path in
      output_string oc keep;
      output_string oc (String.make (8 * 51) 'x');
      close_out oc;
      (match Memsim.Recording.load path with
       | exception Failure _ -> ()
       | _ -> Alcotest.fail "padded file must be rejected");
      (* a file shorter than the header is rejected cleanly *)
      let oc = open_out_bin path in
      output_string oc (String.sub keep 0 10);
      close_out oc;
      match Memsim.Recording.load path with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "header-less file must be rejected")

(* The on-disk magic numbers and layouts, spelled out independently of
   the implementation: these tests pin the formats so that a future
   change that silently breaks old files fails here. *)
let v1_magic = 0x5243545243414345L
let v2_magic = 0x3256545243414345L
let v3_magic = 0x3356545243414345L

let v3_file ?(version = '\003') ?(stride = '\008') ~count payload =
  let n = Bytes.length payload in
  let b = Bytes.make (24 + n) '\000' in
  Bytes.set_int64_le b 0 v3_magic;
  Bytes.set b 8 version;
  Bytes.set b 9 stride;
  Bytes.set_int64_le b 16 (Int64.of_int count);
  Bytes.blit payload 0 b 24 n;
  b

let write_file path bytes =
  let oc = open_out_bin path in
  output_bytes oc bytes;
  close_out oc

let expect_failure path what =
  match Memsim.Recording.load path with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail (what ^ " must be rejected")

(* A load failure whose message starts with [prefix]: the format, the
   byte offset and, where given, the text are part of the contract. *)
let expect_load_error path what prefix =
  match Memsim.Recording.load path with
  | exception Failure msg ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: %S starts with %S" what msg prefix)
      true
      (String.length msg >= String.length prefix
       && String.sub msg 0 (String.length prefix) = prefix)
  | _ -> Alcotest.fail (what ^ " must be rejected")

(* v1, the retired fixed-stride format, is refused by its magic and
   never decoded, whichever way the file would be read: a well-formed
   v1 file built byte by byte from its spec (16-byte header of magic
   and event count, then 8 LE bytes per event) gets one located
   message. *)
let test_recording_v1_refused () =
  let path = Filename.temp_file "repro" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let b = Bytes.create (16 + 16) in
      Bytes.set_int64_le b 0 v1_magic;
      Bytes.set_int64_le b 8 2L;
      Bytes.set_int64_le b 16 (Int64.of_int (64 lsl 3));
      Bytes.set_int64_le b 24 (Int64.of_int ((68 lsl 3) lor 2 lor 1));
      write_file path b;
      List.iter
        (fun (what, load) ->
          match load path with
          | exception Failure msg ->
            Alcotest.(check string) what
              "Recording.load (v1, byte 0): format v1 is retired; re-record \
               the trace as v2 or v3"
              msg
          | _ -> Alcotest.fail (what ^ ": a v1 file must be refused"))
        [ ("load", Memsim.Recording.load);
          ("load_unmapped", Memsim.Recording.load_unmapped)
        ])

(* The heap decoder's per-word audit, which the mapped load cannot make
   (its int-kind view drops bit 63): [load_unmapped] decodes a v3 file
   the way a big-endian host or an unmappable file does.  The faulty
   word sits past the first slab, so the byte offset counts words
   across batches. *)
let test_recording_unmapped_corrupt_word () =
  let path = Filename.temp_file "repro" ".trace" in
  let slab = Memsim.Chunk.default_chunk_events in
  let count = slab + 5 in
  let at = slab + 3 in
  let file word =
    let payload = Bytes.create (8 * count) in
    for i = 0 to count - 1 do
      Bytes.set_int64_le payload (8 * i) (Int64.of_int ((64 * i) lsl 3))
    done;
    Bytes.set_int64_le payload (8 * at) word;
    v3_file ~count payload
  in
  let expect_unmapped what msg =
    match Memsim.Recording.load_unmapped path with
    | exception Failure got -> Alcotest.(check string) what msg got
    | _ -> Alcotest.fail (what ^ " must be rejected")
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (* a clean file decodes to what the mapped load sees *)
      write_file path (file (Int64.of_int ((64 * at) lsl 3)));
      let mapped = Memsim.Recording.load path in
      let decoded = Memsim.Recording.load_unmapped path in
      Alcotest.(check int) "decoded length" count
        (Memsim.Recording.length decoded);
      Alcotest.(check bool)
        "decoded = mapped" true
        (Memsim.Recording.equal mapped decoded);
      Memsim.Recording.release mapped;
      Memsim.Recording.release decoded;
      (* bit 62 set: the word does not round-trip through the 63-bit
         native int, so it must be rejected, not silently truncated *)
      write_file path (file 0x4000000000000000L);
      expect_unmapped "word wider than a native int"
        (Printf.sprintf
           "Recording.load (v3, byte %d): event %d does not fit a native int \
            (written on a wider platform, or corrupt)"
           (24 + (8 * at)) at);
      (* kind code 3 does not exist *)
      write_file path (file (Int64.of_int ((64 lsl 3) lor 6)));
      expect_unmapped "corrupt kind bits"
        (Printf.sprintf
           "Recording.load (v3, byte %d): event %d has corrupt kind bits"
           (24 + (8 * at)) at);
      (* the same audit at the first word, byte 24 *)
      let one = Bytes.create 8 in
      Bytes.set_int64_le one 0 (Int64.of_int ((64 lsl 3) lor 6));
      write_file path (v3_file ~count:1 one);
      expect_unmapped "corrupt kind bits at event 0"
        "Recording.load (v3, byte 24): event 0 has corrupt kind bits")

let v2_file ~count payload =
  let n = Bytes.length payload in
  let b = Bytes.create (17 + n) in
  Bytes.set_int64_le b 0 v2_magic;
  Bytes.set b 8 '\002';
  Bytes.set_int64_le b 9 (Int64.of_int count);
  Bytes.blit payload 0 b 17 n;
  b

let test_recording_v2_corrupt () =
  let rec_ = Memsim.Recording.create () in
  let sink = Memsim.Recording.sink rec_ in
  for i = 0 to 99 do
    sink.Memsim.Trace.access (i * 4) Memsim.Trace.Read mutator
  done;
  let path = Filename.temp_file "repro" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Memsim.Recording.save ~format:Memsim.Recording.V2 rec_ path;
      let ic = open_in_bin path in
      let full = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (* 100 one-byte events (delta 4) after the 17-byte header *)
      Alcotest.(check int) "v2 file size" 117 (String.length full);
      (* cut mid-payload: the header still declares 100 events *)
      write_file path
        (Bytes.of_string (String.sub full 0 (String.length full - 20)));
      expect_load_error path "truncated v2 payload"
        "Recording.load (v2, byte 97): truncated file (80 of 100 events)";
      (* trailing garbage after the declared events *)
      write_file path (Bytes.of_string (full ^ "xxxx"));
      expect_load_error path "v2 trailing bytes"
        "Recording.load (v2, byte 117): 4 trailing bytes after the declared \
         100 events";
      (* unknown version byte *)
      let bad_version = Bytes.of_string full in
      Bytes.set bad_version 8 '\003';
      write_file path bad_version;
      expect_load_error path "unsupported v2 version"
        "Recording.load (v2, byte 8): unsupported format version 3";
      (* kind code 3 in an event tag *)
      write_file path (v2_file ~count:1 (Bytes.make 1 '\006'));
      expect_load_error path "corrupt kind bits (v2)"
        "Recording.load (v2, byte 17): event 0 has corrupt kind bits";
      (* ... and in the 51st event, located at that event's first byte *)
      let bad_tag = Bytes.of_string full in
      Bytes.set bad_tag (17 + 50) (Char.chr (Char.code full.[17 + 50] lor 6));
      write_file path bad_tag;
      expect_load_error path "corrupt kind bits mid-file (v2)"
        "Recording.load (v2, byte 67): event 50 has corrupt kind bits";
      (* a varint running past 63 bits: a valid first byte with the
         continuation bit, then continuation bytes without end *)
      write_file path
        (v2_file ~count:1
           (Bytes.init 12 (fun i ->
                if i = 0 then '\x80' else if i < 11 then '\xff' else '\x01')));
      expect_load_error path "varint overflow"
        "Recording.load (v2, byte 17): event 0 varint overflows";
      (* the same varint cut one byte before the overflow is detected:
         the truncation wins, located at the end of the file *)
      write_file path
        (v2_file ~count:1
           (Bytes.init 10 (fun i -> if i = 0 then '\x80' else '\xff')));
      expect_load_error path "varint cut short"
        "Recording.load (v2, byte 27): truncated file (0 of 1 events)";
      (* a delta stepping below address zero *)
      let neg = (1 lsl 3) lor 0 in
      write_file path (v2_file ~count:1 (Bytes.make 1 (Char.chr neg)));
      expect_load_error path "negative address"
        "Recording.load (v2, byte 17): event 0 has corrupt address";
      (* and one stepping past the largest address, 2^59 - 1: from 0, a
         zigzag delta of 2^60 is a 10-byte varint *)
      let zz = 1 lsl 60 in
      write_file path
        (v2_file ~count:1
           (Bytes.init 10 (fun i ->
                if i = 0 then Char.chr (((zz land 0xf) lsl 3) lor 0x80)
                else
                  let g = (zz lsr (4 + (7 * (i - 1)))) land 0x7f in
                  Char.chr (if i < 9 then g lor 0x80 else g))));
      expect_load_error path "address past the top"
        "Recording.load (v2, byte 17): event 0 has corrupt address")

let test_recording_v3_spec () =
  let rec_ = Memsim.Recording.create () in
  let sink = Memsim.Recording.sink rec_ in
  for i = 0 to 99 do
    sink.Memsim.Trace.access (i * 16)
      (match i mod 3 with
       | 0 -> Memsim.Trace.Read
       | 1 -> Memsim.Trace.Write
       | _ -> Memsim.Trace.Alloc_write)
      (if i land 1 = 0 then mutator else collector)
  done;
  let path = Filename.temp_file "repro" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (* fixed stride: exactly 24 header bytes + 8 per event *)
      Memsim.Recording.save ~format:Memsim.Recording.V3 rec_ path;
      Alcotest.(check int) "v3 file size" (24 + (8 * 100))
        (Unix.stat path).Unix.st_size;
      let back = Memsim.Recording.load path in
      Alcotest.(check bool)
        "v3 load = original" true
        (Memsim.Recording.equal rec_ back);
      (* and a v3 file built byte by byte from the spec: 24-byte header
         (magic, version 3, stride 8, reserved zeros, count), then 8 LE
         bytes per event of the packed in-memory word *)
      let payload = Bytes.create 16 in
      Bytes.set_int64_le payload 0 (Int64.of_int (64 lsl 3));
      Bytes.set_int64_le payload 8 (Int64.of_int ((68 lsl 3) lor 2 lor 1));
      write_file path (v3_file ~count:2 payload);
      let crafted = Memsim.Recording.load path in
      Alcotest.(check int) "crafted length" 2 (Memsim.Recording.length crafted);
      Alcotest.(check bool)
        "crafted event 0" true
        (Memsim.Recording.event crafted 0
         = (64, Memsim.Trace.Read, Memsim.Trace.Mutator));
      Alcotest.(check bool)
        "crafted event 1" true
        (Memsim.Recording.event crafted 1
         = (68, Memsim.Trace.Write, Memsim.Trace.Collector)))

let test_recording_v3_corrupt () =
  let path = Filename.temp_file "repro" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let payload = Bytes.create 8 in
      Bytes.set_int64_le payload 0 (Int64.of_int (64 lsl 3));
      (* unknown version byte under the v3 magic *)
      write_file path (v3_file ~version:'\004' ~count:1 payload);
      expect_failure path "unsupported v3 version";
      (* an event stride the loader does not speak *)
      write_file path (v3_file ~stride:'\016' ~count:1 payload);
      expect_failure path "unsupported v3 stride";
      (* header cut short *)
      write_file path (Bytes.sub (v3_file ~count:1 payload) 0 20);
      expect_failure path "short v3 header";
      (* payload shorter than the declared count *)
      write_file path (v3_file ~count:2 payload);
      expect_failure path "truncated v3 payload";
      (* trailing bytes after the declared events *)
      write_file path (Bytes.cat (v3_file ~count:1 payload) (Bytes.make 4 'x'));
      expect_failure path "v3 trailing bytes";
      (* negative declared count *)
      let neg = v3_file ~count:1 payload in
      Bytes.set_int64_le neg 16 (-1L);
      write_file path neg;
      expect_failure path "negative v3 count")

(* mmap-loaded recordings alias the file's pages: they must refuse
   appends instead of writing through to disk. *)
let test_recording_v3_read_only () =
  let rec_ = Memsim.Recording.create () in
  let sink = Memsim.Recording.sink rec_ in
  for i = 0 to 9 do
    sink.Memsim.Trace.access (i * 8) Memsim.Trace.Read mutator
  done;
  let path = Filename.temp_file "repro" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Memsim.Recording.save ~format:Memsim.Recording.V3 rec_ path;
      let mapped = Memsim.Recording.load path in
      let out = Memsim.Recording.sink mapped in
      (match out.Memsim.Trace.access 0 Memsim.Trace.Read mutator with
       | exception Invalid_argument _ -> ()
       | () -> Alcotest.fail "append to a mapped recording must fail");
      (* the failed append corrupted nothing *)
      Alcotest.(check bool)
        "mapped recording intact" true
        (Memsim.Recording.equal rec_ mapped))

(* --- Slab pool -------------------------------------------------------------- *)

(* A released recording's slabs are rewritten by the next recording.
   Poison them with a word no recording can hold (kind code 3): a
   re-recording that read or kept any stale word would differ from the
   reference, on the direct-writer path and on the closure-sink path.
   The released recording's machine stays in use meanwhile: it must no
   longer write into what was its current slab. *)
let test_pool_poisoned_slabs () =
  let record ~direct =
    Core.Runner.record ~direct ~scale:1 Workloads.Workload.nbody
  in
  let _, reference = record ~direct:true in
  let victim_run, victim = record ~direct:true in
  let slabs = ref [] in
  Memsim.Recording.iter_chunks victim (fun buf _ -> slabs := buf :: !slabs);
  let poison () =
    List.iter (fun buf -> Bigarray.Array1.fill buf ((1 lsl 3) lor 6)) !slabs
  in
  Memsim.Recording.release victim;
  poison ();
  List.iter
    (fun direct ->
      let path = if direct then "direct" else "sink" in
      let _, again = record ~direct in
      ignore
        (Vscheme.Machine.eval_string victim_run.Core.Runner.machine
           "(define (poke n) (if (= n 0) 0 (+ 1 (poke (- n 1))))) (poke 100)");
      (* The pool is a stack, so the poisoned slabs are drawn first and
         the same-length re-recording needs no other. *)
      Memsim.Recording.iter_chunks again (fun buf _ ->
          if not (List.memq buf !slabs) then
            Alcotest.fail (path ^ ": re-recording drew a slab from outside the pool"));
      Alcotest.(check bool)
        (path ^ ": re-recording over poisoned slabs = reference")
        true
        (Memsim.Recording.equal reference again);
      Memsim.Recording.release again;
      poison ())
    [ true; false ]

(* A finished run hands its caller a recording it owns outright: on
   the direct-writer path as on the sink path, one more append through
   the recording's sink is accepted and grows it by one event. *)
let test_finished_recording_appends () =
  List.iter
    (fun direct ->
      let path = if direct then "direct" else "sink" in
      let _, r =
        Core.Runner.record ~direct ~scale:1 Workloads.Workload.nbody
      in
      let n = Memsim.Recording.length r in
      (match
         (Memsim.Recording.sink r).Memsim.Trace.access 64 Memsim.Trace.Write
           Memsim.Trace.Mutator
       with
       | () -> ()
       | exception Invalid_argument msg ->
         Alcotest.fail (path ^ ": append after the run refused: " ^ msg));
      Alcotest.(check int) (path ^ ": one more event") (n + 1)
        (Memsim.Recording.length r);
      Memsim.Recording.release r)
    [ true; false ]

(* [clear] pools a recording's sealed slabs as [release] does, and
   keeps its current slab.  Poison every slab the cleared recording
   had: a re-recording drawn from the pool, on either producer path,
   and a re-recording into the cleared recording itself must still
   equal the reference. *)
let test_pool_clear_poisoned () =
  let record ~direct =
    Core.Runner.record ~direct ~scale:1 Workloads.Workload.nbody
  in
  let chunks rc =
    let bufs = ref [] in
    Memsim.Recording.iter_chunks rc (fun buf _ -> bufs := buf :: !bufs);
    List.rev !bufs
  in
  let sealed rc =
    match List.rev (chunks rc) with _current :: sealed -> sealed | [] -> []
  in
  let _, reference = record ~direct:true in
  List.iter
    (fun direct ->
      let path = if direct then "direct" else "sink" in
      let _, victim = record ~direct:true in
      let pooled = sealed victim and all = chunks victim in
      Memsim.Recording.clear victim;
      Alcotest.(check int) (path ^ ": cleared") 0
        (Memsim.Recording.length victim);
      List.iter (fun buf -> Bigarray.Array1.fill buf ((1 lsl 3) lor 6)) all;
      let _, again = record ~direct in
      (* The pool is a stack: the cleared slabs are drawn first, for
         every slab the re-recording sealed. *)
      List.iter
        (fun buf ->
          if not (List.memq buf pooled) then
            Alcotest.fail (path ^ ": a sealed slab did not come from clear"))
        (sealed again);
      Alcotest.(check bool)
        (path ^ ": re-recording over cleared slabs = reference")
        true
        (Memsim.Recording.equal reference again);
      Memsim.Recording.replay reference (Memsim.Recording.sink victim);
      Alcotest.(check bool)
        (path ^ ": the cleared recording records again")
        true
        (Memsim.Recording.equal reference victim);
      Alcotest.(check bool)
        (path ^ ": ... without touching the re-recording")
        true
        (Memsim.Recording.equal reference again);
      Memsim.Recording.release again;
      Memsim.Recording.release victim)
    [ true; false ];
  Memsim.Recording.release reference

(* A v3 mapping of exactly one default slab's worth of events has a
   pooled slab's shape, but it is the file's pages: releasing or
   clearing it must not pool it, or the next recording would write
   into the file. *)
let test_pool_skips_mapped_view () =
  let n = Memsim.Chunk.default_chunk_events in
  let rec_ = Memsim.Recording.create () in
  let sink = Memsim.Recording.sink rec_ in
  for i = 0 to n - 1 do
    sink.Memsim.Trace.access (i * 8) Memsim.Trace.Read mutator
  done;
  let path = Filename.temp_file "repro" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Memsim.Recording.save ~format:Memsim.Recording.V3 rec_ path;
      List.iter
        (fun (how, drop) ->
          let mapped = Memsim.Recording.load path in
          let payload = ref Memsim.Chunk.empty in
          Memsim.Recording.iter_chunks mapped (fun buf len ->
              Alcotest.(check int) "one slab-sized chunk" n len;
              payload := buf);
          drop mapped;
          Alcotest.(check int) (how ^ ": empty") 0
            (Memsim.Recording.length mapped);
          (match
             (Memsim.Recording.sink mapped).Memsim.Trace.access 0
               Memsim.Trace.Read mutator
           with
           | exception Invalid_argument _ -> ()
           | () -> Alcotest.fail (how ^ ": a dropped view took an append"));
          let later = Memsim.Recording.create () in
          let sink = Memsim.Recording.sink later in
          for i = 0 to (3 * n) - 1 do
            sink.Memsim.Trace.access (i * 4) Memsim.Trace.Write collector
          done;
          Memsim.Recording.iter_chunks later (fun buf _ ->
              Alcotest.(check bool) (how ^ ": mapped payload never pooled")
                false (buf == !payload));
          Memsim.Recording.release later;
          Alcotest.(check bool)
            (how ^ ": file untouched") true
            (Memsim.Recording.equal rec_ (Memsim.Recording.load path)))
        [ ("release", Memsim.Recording.release);
          ("clear", Memsim.Recording.clear) ])

let test_released_recording_is_empty () =
  let rec_ = Memsim.Recording.create () in
  let sink = Memsim.Recording.sink rec_ in
  for i = 0 to 99 do
    sink.Memsim.Trace.access (i * 8) Memsim.Trace.Read mutator
  done;
  Memsim.Recording.release rec_;
  Alcotest.(check int) "length" 0 (Memsim.Recording.length rec_);
  (match sink.Memsim.Trace.access 0 Memsim.Trace.Read mutator with
   | exception Invalid_argument _ -> ()
   | () -> Alcotest.fail "append to a released recording must fail");
  (match Memsim.Recording.checkout rec_ with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "checkout of a released recording must fail");
  Memsim.Recording.release rec_;
  Alcotest.(check int) "second release is harmless" 0
    (Memsim.Recording.length rec_)

(* --- Kept traces ------------------------------------------------------------ *)

type Memsim.Recording.note += Test_note

(* [n] events through the sink, in slabs from the pool. *)
let filled n ~stride =
  let rec_ = Memsim.Recording.create () in
  let sink = Memsim.Recording.sink rec_ in
  for i = 0 to n - 1 do
    sink.Memsim.Trace.access (i * stride) Memsim.Trace.Read mutator
  done;
  rec_

let chunk_bufs rec_ =
  let bufs = ref [] in
  Memsim.Recording.iter_chunks rec_ (fun buf _ -> bufs := buf :: !bufs);
  !bufs

let lease_exn key =
  match Memsim.Recording.lease key with
  | Some (l, _) -> l
  | None -> Alcotest.fail (key ^ ": not kept")

(* A producer that finds the free list empty evicts the least recently
   leased unpinned kept trace, and draws its slab from it, before it
   allocates a fresh one. *)
let test_kept_evicts_lru () =
  Kept_probe.evict_unpinned ();
  let n = (2 * Memsim.Chunk.default_chunk_events) + 5 in
  let a = filled n ~stride:8 and b = filled n ~stride:16 in
  let b_slabs = chunk_bufs b in
  Memsim.Recording.keep ~key:"test lru a" Test_note a;
  Memsim.Recording.keep ~key:"test lru b" Test_note b;
  Memsim.Recording.release a;
  Memsim.Recording.release b;
  (* Leasing [a] again leaves [b] the least recently leased. *)
  Memsim.Recording.release (lease_exn "test lru a");
  let held = Kept_probe.drain_free () in
  let before = (Kept_probe.pool ()).Memsim.Recording.evictions in
  let fresh = filled 1 ~stride:8 in
  Alcotest.(check int) "one eviction" (before + 1)
    (Kept_probe.pool ()).Memsim.Recording.evictions;
  Alcotest.(check bool) "b evicted" true
    (Option.is_none (Memsim.Recording.lease "test lru b"));
  Alcotest.(check bool) "the new slab was b's" true
    (List.for_all (fun buf -> List.memq buf b_slabs) (chunk_bufs fresh));
  let a' = lease_exn "test lru a" in
  let reference = filled n ~stride:8 in
  Alcotest.(check bool) "a still kept and intact" true
    (Memsim.Recording.equal a' reference);
  List.iter Memsim.Recording.release (a' :: reference :: fresh :: held)

(* A pinned kept trace is never evicted: a producer short of slabs
   allocates instead, and the lease still reads its events. *)
let test_kept_pinned () =
  Kept_probe.evict_unpinned ();
  let n = Memsim.Chunk.default_chunk_events + 7 in
  let reference = filled n ~stride:24 in
  let a = filled n ~stride:24 in
  Memsim.Recording.keep ~key:"test pinned" Test_note a;
  let held = Kept_probe.drain_free () in
  let before = (Kept_probe.pool ()).Memsim.Recording.evictions in
  let fresh = filled (3 * Memsim.Chunk.default_chunk_events) ~stride:4 in
  Alcotest.(check int) "no eviction" before
    (Kept_probe.pool ()).Memsim.Recording.evictions;
  Alcotest.(check bool) "the pinned lease reads its events" true
    (Memsim.Recording.equal reference a);
  let again = lease_exn "test pinned" in
  Alcotest.(check bool) "still kept" true
    (Memsim.Recording.equal reference again);
  List.iter Memsim.Recording.release (again :: a :: fresh :: reference :: held)

(* A lease reads a kept trace in place: it refuses every write, and
   releasing it leaves the trace kept. *)
let test_kept_lease_read_only () =
  let a = filled 1000 ~stride:8 in
  Memsim.Recording.keep ~key:"test read-only" Test_note a;
  let b = lease_exn "test read-only" in
  let refused what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail ("a lease accepted " ^ what)
  in
  List.iter
    (fun l ->
      refused "clear" (fun () -> Memsim.Recording.clear l);
      refused "an append" (fun () ->
          (Memsim.Recording.sink l).Memsim.Trace.access 0 Memsim.Trace.Read
            mutator);
      refused "checkout" (fun () -> ignore (Memsim.Recording.checkout l));
      Alcotest.(check int) "events intact" 1000 (Memsim.Recording.length l))
    [ a; b ];
  Memsim.Recording.release a;
  Alcotest.(check int) "a released lease is empty" 0
    (Memsim.Recording.length a);
  Alcotest.(check int) "the other lease still reads" 1000
    (Memsim.Recording.length b);
  Memsim.Recording.release b;
  Memsim.Recording.release (lease_exn "test read-only")

(* [saved_bytes ~format:V2] (the count kernel) must equal the file
   [save] writes (the encode kernel), on every workload with and
   without the Cheney collector, on a mapped v3 load of each (one
   slab as wide as the trace), on a trace whose address jumps need
   varints longer than 5 bytes, and on a lease, whose count the kept
   trace keeps for the next lease. *)
let test_saved_bytes_count () =
  let file_size rec_ =
    let path = Filename.temp_file "repro" ".trace" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Memsim.Recording.save rec_ path;
        (Unix.stat path).Unix.st_size)
  in
  let check name rec_ =
    Alcotest.(check int) (name ^ ": count = saved file") (file_size rec_)
      (Memsim.Recording.saved_bytes rec_)
  in
  let v3_path = Filename.temp_file "repro" ".v3" in
  Fun.protect
    ~finally:(fun () -> Sys.remove v3_path)
    (fun () ->
      List.iter
        (fun w ->
          List.iter
            (fun (label, gc) ->
              let name = w.Workloads.Workload.name ^ label in
              let _, rec_ = Core.Runner.record ?gc ~scale:1 w in
              check name rec_;
              Memsim.Recording.save ~format:Memsim.Recording.V3 rec_ v3_path;
              let mapped = Memsim.Recording.load v3_path in
              check (name ^ ", mapped v3") mapped;
              Memsim.Recording.release mapped;
              Memsim.Recording.release rec_)
            [ ("", None);
              ( " under cheney",
                Some (Vscheme.Machine.Cheney { semispace_bytes = 256 * 1024 }) )
            ])
        Workloads.Workload.all);
  let far = Memsim.Recording.create ~initial_capacity:64 () in
  let sink = Memsim.Recording.sink far in
  List.iter
    (fun addr -> sink.Memsim.Trace.access addr Memsim.Trace.Write collector)
    [ 0; 1 lsl 58; 8; (1 lsl 59) - 8; 1 lsl 40; 0; 1 lsl 33 ];
  Alcotest.(check bool) "some event is longer than 5 bytes" true
    (Memsim.Recording.saved_bytes far > 17 + (5 * 7));
  check "long varints" far;
  let kept = filled 5000 ~stride:12 in
  let expect = file_size kept in
  Memsim.Recording.keep ~key:"test saved bytes" Test_note kept;
  check "lease" kept;
  let again = lease_exn "test saved bytes" in
  Alcotest.(check int) "second lease: counted once" expect
    (Memsim.Recording.saved_bytes again);
  Memsim.Recording.release kept;
  Memsim.Recording.release again

(* The v3 file as a reference writer lays it out, one
   [Buffer.add_int64_le] per header field and per event word. *)
let v3_reference rec_ =
  let b = Buffer.create (24 + (8 * Memsim.Recording.length rec_)) in
  Buffer.add_int64_le b 0x3356545243414345L;
  Buffer.add_char b '\003';
  Buffer.add_char b '\008';
  Buffer.add_string b (String.make 6 '\000');
  Buffer.add_int64_le b (Int64.of_int (Memsim.Recording.length rec_));
  Memsim.Recording.iter_chunks rec_ (fun buf len ->
      for i = 0 to len - 1 do
        Buffer.add_int64_le b (Int64.of_int (Bigarray.Array1.get buf i))
      done);
  Buffer.contents b

(* [save ~format:V3] writes each slab straight from memory; the bytes
   must be the reference writer's on a recording of several slabs with
   a partial tail, on a lease, and on a mapped v3 load, whose one slab
   is as wide as the trace. *)
let test_recording_v3_save_reference () =
  let path = Filename.temp_file "repro" ".v3"
  and source = Filename.temp_file "repro" ".v3" in
  let saved rec_ =
    Memsim.Recording.save ~format:Memsim.Recording.V3 rec_ path;
    In_channel.with_open_bin path In_channel.input_all
  in
  let check what rec_ =
    Alcotest.(check bool)
      (what ^ ": save = reference writer") true
      (String.equal (v3_reference rec_) (saved rec_))
  in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Sys.remove source)
    (fun () ->
      let n = (2 * Memsim.Chunk.default_chunk_events) + 1234 in
      let rec_ = Memsim.Recording.create () in
      let sink = Memsim.Recording.sink rec_ in
      for i = 0 to n - 1 do
        sink.Memsim.Trace.access
          ((i * 40) lxor (i lsl 33))
          (match i mod 3 with
           | 0 -> Memsim.Trace.Read
           | 1 -> Memsim.Trace.Write
           | _ -> Memsim.Trace.Alloc_write)
          (if i land 4 = 0 then mutator else collector)
      done;
      check "multi-slab" rec_;
      Memsim.Recording.save ~format:Memsim.Recording.V3 rec_ source;
      Memsim.Recording.keep ~key:"test v3 reference" Test_note rec_;
      check "lease" rec_;
      (* Re-saving onto [source] itself is the next test's. *)
      let mapped = Memsim.Recording.load source in
      check "mapped v3 load" mapped;
      Alcotest.(check bool) "re-save of the mapped load = its source" true
        (String.equal
           (In_channel.with_open_bin source In_channel.input_all)
           (saved mapped));
      Memsim.Recording.release mapped;
      Memsim.Recording.release rec_)

(* A mapped v3 load saved onto its own path: the save replaces the file
   by a rename, so the mapping keeps reading the old pages to the end
   of the write.  Truncating the path in place would cut the mapping's
   pages from under the writer (EFAULT from write(2)). *)
let test_recording_v3_resave_own_path () =
  let path = Filename.temp_file "repro" ".v3" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let n = (2 * Memsim.Chunk.default_chunk_events) + 777 in
      let original = filled n ~stride:72 in
      Memsim.Recording.save ~format:Memsim.Recording.V3 original path;
      let mapped = Memsim.Recording.load path in
      (match
         (Memsim.Recording.sink mapped).Memsim.Trace.access 0
           Memsim.Trace.Read mutator
       with
       | exception Invalid_argument _ -> ()
       | () -> Alcotest.fail "the v3 load must be a read-only mapping");
      Memsim.Recording.save ~format:Memsim.Recording.V3 mapped path;
      Alcotest.(check bool) "old mapping still equals the original" true
        (Memsim.Recording.equal mapped original);
      let reloaded = Memsim.Recording.load path in
      Alcotest.(check bool) "new file loads equal" true
        (Memsim.Recording.equal reloaded original);
      Alcotest.(check bool) "new file = reference writer" true
        (String.equal (v3_reference original)
           (In_channel.with_open_bin path In_channel.input_all));
      (* v2 onto the path the second mapping reads, too *)
      Memsim.Recording.save reloaded path;
      Alcotest.(check bool) "v2 re-save loads equal" true
        (Memsim.Recording.equal (Memsim.Recording.load path) original);
      Alcotest.(check bool) "second mapping still equal" true
        (Memsim.Recording.equal reloaded original);
      Memsim.Recording.release reloaded;
      Memsim.Recording.release mapped;
      Memsim.Recording.release original)

(* A save whose write(2) fails raises [Sys_error] in both formats, with
   the same message, and leaves no descriptor open: v2 fails in its
   channel, v3 in the writer that bypasses it.  The v2 file is longer
   than the channel's buffer, so it fails before the final flush. *)
let test_recording_save_full_device () =
  let dev = "/dev/full" in
  let fd_dir = "/proc/self/fd" in
  if Sys.file_exists dev && Sys.file_exists fd_dir then begin
    let open_fds () = Array.length (Sys.readdir fd_dir) in
    let rec_ = filled (Memsim.Chunk.default_chunk_events + 100) ~stride:4096 in
    Alcotest.(check bool) "v2 exceeds a channel buffer" true
      (Memsim.Recording.saved_bytes rec_ > 65536);
    let before = open_fds () in
    let message format =
      match Memsim.Recording.save ~format rec_ dev with
      | exception Sys_error msg -> msg
      | () -> Alcotest.fail "a save to a full device must fail"
    in
    let v2 = message Memsim.Recording.V2 in
    let v3 = message Memsim.Recording.V3 in
    Alcotest.(check string) "v3 message = v2 message" v2 v3;
    Alcotest.(check int) "open descriptors after both saves" before
      (open_fds ());
    Memsim.Recording.release rec_
  end

(* Error messages name the detected format and the failing byte, so a
   corrupt trace can be diagnosed with `dd'. *)
let test_recording_error_messages () =
  let path = Filename.temp_file "repro" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let expect_prefix = expect_load_error path in
      write_file path (Bytes.make 7 '\xab');
      expect_prefix "short file" "Recording.load (byte 0): truncated file";
      write_file path (Bytes.make 32 '\xab');
      expect_prefix "bad magic" "Recording.load (byte 0): not a trace";
      let payload = Bytes.create 8 in
      Bytes.set_int64_le payload 0 (Int64.of_int (64 lsl 3));
      write_file path (v3_file ~stride:'\016' ~count:1 payload);
      expect_prefix "bad stride" "Recording.load (v3, byte 9):";
      write_file path (v3_file ~count:2 payload);
      expect_prefix "truncated v3" "Recording.load (v3, byte 16):")

(* Every load, accepted or refused, closes the one descriptor it
   opens: the open-descriptor count of the process is the same before
   and after.  Each refusal's whole message is pinned.  The count is
   skipped only where /proc/self/fd does not exist. *)
let test_recording_load_closes_descriptor () =
  let fd_dir = "/proc/self/fd" in
  let open_fds () =
    if Sys.file_exists fd_dir then Some (Array.length (Sys.readdir fd_dir))
    else None
  in
  let path = Filename.temp_file "repro" ".trace" in
  let rec_ = Memsim.Recording.create ~initial_capacity:16 () in
  let sink = Memsim.Recording.sink rec_ in
  for i = 0 to 39 do
    sink.Memsim.Trace.access (i * 8) Memsim.Trace.Read mutator
  done;
  let payload = Bytes.create 8 in
  Bytes.set_int64_le payload 0 (Int64.of_int (64 lsl 3));
  let v2_bytes =
    Memsim.Recording.save rec_ path;
    In_channel.with_open_bin path In_channel.input_all
  in
  let save_v3 () = Memsim.Recording.save ~format:Memsim.Recording.V3 rec_ path in
  let accepted =
    [ ("v2", (fun () -> Memsim.Recording.save rec_ path), Memsim.Recording.load);
      ("v3", save_v3, Memsim.Recording.load);
      ("v3 unmapped", save_v3, Memsim.Recording.load_unmapped)
    ]
  in
  let v1_file =
    let b = Bytes.create (16 + 8) in
    Bytes.set_int64_le b 0 v1_magic;
    Bytes.set_int64_le b 8 1L;
    Bytes.blit payload 0 b 16 8;
    b
  in
  let refused =
    [ ( "under 8 bytes",
        Bytes.make 7 '\xab',
        "Recording.load (byte 0): truncated file (7b, smaller than any header)"
      );
      ( "v2 header cut at 8 bytes",
        Bytes.sub (Bytes.of_string v2_bytes) 0 8,
        "Recording.load (v2, byte 8): truncated file (8b of the 17b header)" );
      ( "v2 header cut at 12 bytes",
        Bytes.sub (Bytes.of_string v2_bytes) 0 12,
        "Recording.load (v2, byte 12): truncated file (12b of the 17b header)" );
      ( "v3 header cut at 8 bytes",
        Bytes.sub (v3_file ~count:1 payload) 0 8,
        "Recording.load (v3, byte 8): truncated file (8b of the 24b header)" );
      ( "v3 header cut at 12 bytes",
        Bytes.sub (v3_file ~count:1 payload) 0 12,
        "Recording.load (v3, byte 12): truncated file (12b of the 24b header)" );
      ( "v3 header cut at 20 bytes",
        Bytes.sub (v3_file ~count:1 payload) 0 20,
        "Recording.load (v3, byte 20): truncated file (20b of the 24b header)" );
      ( "bad version",
        v3_file ~version:'\004' ~count:1 payload,
        "Recording.load (v3, byte 8): unsupported format version 4" );
      ( "bad stride",
        v3_file ~stride:'\016' ~count:1 payload,
        "Recording.load (v3, byte 9): unsupported event stride 16 (expected 8)"
      );
      ( "count disagrees with the payload",
        v3_file ~count:2 payload,
        "Recording.load (v3, byte 16): header declares 2 events but the 8b \
         payload holds 1" );
      ( "partial trailing word",
        Bytes.cat (v3_file ~count:1 payload) (Bytes.make 4 'x'),
        "Recording.load (v3, byte 16): header declares 1 events but the 12b \
         payload holds 1 and a partial word" );
      ( "v2 trailing bytes",
        Bytes.cat (Bytes.of_string v2_bytes) (Bytes.make 3 'x'),
        Printf.sprintf
          "Recording.load (v2, byte %d): 3 trailing bytes after the declared \
           40 events"
          (String.length v2_bytes) );
      ( "retired v1",
        v1_file,
        "Recording.load (v1, byte 0): format v1 is retired; re-record the \
         trace as v2 or v3" );
      ( "unknown magic",
        Bytes.make 32 '\xab',
        "Recording.load (byte 0): not a trace recording (magic \
         0xabababababababab)" )
    ]
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let before = open_fds () in
      let loaded =
        List.map
          (fun (what, save, load) ->
            save ();
            let back = load path in
            Alcotest.(check bool)
              (what ^ " loads equal") true
              (Memsim.Recording.equal rec_ back);
            back)
          accepted
      in
      List.iter
        (fun (what, bytes, msg) ->
          write_file path bytes;
          match Memsim.Recording.load path with
          | exception Failure got -> Alcotest.(check string) what msg got
          | _ -> Alcotest.fail (what ^ " must be rejected"))
        refused;
      (match Memsim.Recording.load (path ^ ".absent") with
       | exception Sys_error got ->
         Alcotest.(check string) "absent file"
           (path ^ ".absent: No such file or directory")
           got
       | _ -> Alcotest.fail "an absent file must be rejected");
      (match (before, open_fds ()) with
       | Some before, Some after ->
         Alcotest.(check int) "open descriptors after every load" before after
       | _ -> ());
      (* The loaded recordings, the v3 mapping among them, stay live
         across the count: a mapping holds no descriptor. *)
      List.iter Memsim.Recording.release loaded)

(* --- Chunks ------------------------------------------------------------- *)

let all_kinds = [ Memsim.Trace.Read; Memsim.Trace.Write; Memsim.Trace.Alloc_write ]

let test_chunk_codec () =
  List.iter
    (fun kind ->
      List.iter
        (fun phase ->
          List.iter
            (fun addr ->
              let a, k, p =
                Memsim.Chunk.unpack (Memsim.Chunk.pack addr kind phase)
              in
              Alcotest.(check int) "addr survives" addr a;
              Alcotest.(check bool) "kind survives" true (k = kind);
              Alcotest.(check bool) "phase survives" true (p = phase))
            [ 0; 4; 0xfffffc; 1 lsl 40 ])
        [ mutator; collector ])
    all_kinds;
  (match Memsim.Chunk.kind_of_code 3 with
   | exception Failure _ -> ()
   | _ -> Alcotest.fail "bad kind code must be rejected")

(* A deterministic pseudo-random trace long enough to exercise every
   cache path: reads, stores, allocation, both phases, evictions. *)
let synth_trace n =
  let state = ref 0x2545F4914F6CDD1D in
  let next () =
    (* xorshift *)
    let x = !state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    state := x;
    x land max_int
  in
  List.init n (fun _ ->
      let r = next () in
      let addr = (r lsr 8) land 0xffffc in
      let kind =
        match r land 3 with
        | 0 | 1 -> Memsim.Trace.Read
        | 2 -> Memsim.Trace.Write
        | _ -> Memsim.Trace.Alloc_write
      in
      let phase = if (r lsr 2) land 7 = 0 then collector else mutator in
      (addr, kind, phase))

let record_trace events =
  let rec_ = Memsim.Recording.create ~initial_capacity:256 () in
  let sink = Memsim.Recording.sink rec_ in
  List.iter (fun (a, k, p) -> sink.Memsim.Trace.access a k p) events;
  rec_

let small_grid () =
  Memsim.Sweep.create
    (Memsim.Sweep.grid ~cache_sizes:[ 1024; 4096; 16384 ]
       ~block_sizes:[ 16; 64; 256 ] ())

let test_run_parallel_matches_serial () =
  let events = synth_trace 50_000 in
  let recording = record_trace events in
  let serial = small_grid () in
  Memsim.Sweep.hier_run_serial (Memsim.Sweep.hiers serial) recording;
  (* the serial chunked engine matches the per-event oracle *)
  let oracle = small_grid () in
  List.iter
    (fun (a, k, p) -> (Memsim.Sweep.sink oracle).Memsim.Trace.access a k p)
    events;
  Alcotest.(check bool) "chunked = per-event" true
    (Memsim.Sweep.results oracle = Memsim.Sweep.results serial);
  List.iter
    (fun jobs ->
      let parallel = small_grid () in
      Memsim.Sweep.hier_run_parallel ~jobs (Memsim.Sweep.hiers parallel)
        recording;
      Alcotest.(check bool)
        (Printf.sprintf "parallel jobs=%d = serial" jobs)
        true
        (Memsim.Sweep.results serial = Memsim.Sweep.results parallel))
    [ 2; 4; 64 (* clamped to the cache count *) ]

(* --- Properties -------------------------------------------------------- *)

(* The reference model: an address is a hit iff the last access mapping
   to its set was to the same block and (for reads) the word is
   fetched-or-written since the tag was installed.  Rather than
   duplicating the sub-block logic we check coarser invariants. *)
let trace_gen =
  QCheck.Gen.(
    list_size (int_bound 400)
      (pair (int_bound 4096) (int_bound 2)))

let invariants_prop =
  QCheck.Test.make ~count:200 ~name:"cache counter invariants"
    (QCheck.make trace_gen)
    (fun events ->
      let c = mk ~size:512 ~block:32 () in
      List.iter
        (fun (addr, k) ->
          let addr = addr land lnot 3 in
          let kind =
            match k with
            | 0 -> Memsim.Trace.Read
            | 1 -> Memsim.Trace.Write
            | _ -> Memsim.Trace.Alloc_write
          in
          Memsim.Level.access c addr kind mutator)
        events;
      let s = stats c in
      s.Memsim.Cache.refs = List.length events
      && s.Memsim.Cache.misses <= s.Memsim.Cache.refs
      && s.Memsim.Cache.fetches <= s.Memsim.Cache.misses
      && s.Memsim.Cache.alloc_misses <= s.Memsim.Cache.misses
      && s.Memsim.Cache.writebacks <= s.Memsim.Cache.writes)

let policy_dominance_prop =
  (* Fetch-on-write never fetches less than write-validate on the same
     trace. *)
  QCheck.Test.make ~count:200 ~name:"fetch-on-write fetches >= write-validate"
    (QCheck.make trace_gen)
    (fun events ->
      let wv = mk ~policy:Memsim.Cache.Write_validate ~size:512 ~block:32 () in
      let fow = mk ~policy:Memsim.Cache.Fetch_on_write ~size:512 ~block:32 () in
      List.iter
        (fun (addr, k) ->
          let addr = addr land lnot 3 in
          let kind =
            match k with
            | 0 -> Memsim.Trace.Read
            | 1 -> Memsim.Trace.Write
            | _ -> Memsim.Trace.Alloc_write
          in
          Memsim.Level.access wv addr kind mutator;
          Memsim.Level.access fow addr kind mutator)
        events;
      (stats fow).Memsim.Cache.fetches >= (stats wv).Memsim.Cache.fetches)

(* With one way there is nothing to replace by: every policy is the
   direct-mapped cache, on the per-event path and the chunk loop
   alike. *)
let assoc_one_way_equals_direct_prop =
  QCheck.Test.make ~count:200 ~name:"1-way assoc cache = direct-mapped cache"
    (QCheck.make trace_gen)
    (fun events ->
      let events =
        List.map
          (fun (addr, k) ->
            let kind =
              match k with
              | 0 -> Memsim.Trace.Read
              | 1 -> Memsim.Trace.Write
              | _ -> Memsim.Trace.Alloc_write
            in
            (addr land lnot 3, kind))
          events
      in
      let packed =
        Memsim.Chunk.of_array
          (Array.of_list
             (List.map (fun (a, k) -> Memsim.Chunk.pack a k mutator) events))
      in
      let direct = mk ~size:512 ~block:32 () in
      List.iter (fun (a, k) -> Memsim.Level.access direct a k mutator) events;
      List.for_all
        (fun lpolicy ->
          let one_way = mk ~lpolicy ~size:512 ~block:32 () in
          List.iter
            (fun (a, k) -> Memsim.Level.access one_way a k mutator)
            events;
          let chunked = mk ~lpolicy ~size:512 ~block:32 () in
          Memsim.Level.access_chunk chunked packed 0
            (Bigarray.Array1.dim packed);
          stats direct = stats one_way && stats direct = stats chunked)
        Memsim.Level.all_policies)

let assoc_inclusion_prop =
  (* The classic LRU inclusion property: with the number of sets held
     fixed, adding ways can only remove (read) misses. *)
  QCheck.Test.make ~count:200 ~name:"LRU inclusion with fixed set count"
    (QCheck.make trace_gen)
    (fun events ->
      let run ways =
        let c = mk_assoc ~size:(512 * ways) ~block:32 ~ways () in
        List.iter
          (fun (addr, _) ->
            Memsim.Level.access c (addr land lnot 3) Memsim.Trace.Read mutator)
          events;
        (Memsim.Level.stats c).Memsim.Cache.misses
      in
      let m1 = run 1 in
      let m2 = run 2 in
      let m4 = run 4 in
      m4 <= m2 && m2 <= m1)

let fow_equals_misses_prop =
  QCheck.Test.make ~count:200 ~name:"under fetch-on-write, fetches = misses"
    (QCheck.make trace_gen)
    (fun events ->
      let c = mk ~policy:Memsim.Cache.Fetch_on_write ~size:512 ~block:32 () in
      List.iter
        (fun (addr, k) ->
          let addr = addr land lnot 3 in
          let kind =
            match k with
            | 0 -> Memsim.Trace.Read
            | 1 -> Memsim.Trace.Write
            | _ -> Memsim.Trace.Alloc_write
          in
          Memsim.Level.access c addr kind mutator)
        events;
      let s = stats c in
      s.Memsim.Cache.fetches = s.Memsim.Cache.misses)

let trace_gen_phased =
  QCheck.Gen.(
    list_size (int_bound 400)
      (triple (int_bound 4096) (int_bound 2) bool))

let chunk_equivalence_prop =
  (* The direct-mapped chunk loop must be observationally identical
     to the per-event entry points — counters and snapshot bytes — for
     both write-miss policies and phases, even when the chunk is
     delivered in arbitrary (off, len) slices.  Kind code 3 words (a
     miss stream's write-backs, as a level below receives them) are
     mixed in and must match [Level.write_back], including on lines
     that write-validate left partly valid. *)
  QCheck.Test.make ~count:200 ~name:"access_chunk = per-event access"
    (QCheck.make
       QCheck.Gen.(
         list_size (int_bound 400)
           (triple (int_bound 4096) (int_bound 3) bool)))
    (fun events ->
      let events =
        List.map
          (fun (addr, k, coll) ->
            (addr land lnot 3, k, if coll then collector else mutator))
          events
      in
      let word (a, k, p) =
        match k with
        | 0 -> Memsim.Chunk.pack a Memsim.Trace.Read p
        | 1 -> Memsim.Chunk.pack a Memsim.Trace.Write p
        | 2 -> Memsim.Chunk.pack a Memsim.Trace.Alloc_write p
        | _ -> Memsim.Chunk.pack a Memsim.Trace.Read p lor (3 lsl 1)
      in
      let packed =
        Memsim.Chunk.of_array (Array.of_list (List.map word events))
      in
      let n = Bigarray.Array1.dim packed in
      List.for_all
        (fun policy ->
          let reference = mk ~policy ~size:512 ~block:32 () in
          List.iter
            (fun (a, k, p) ->
              match k with
              | 0 -> Memsim.Level.access reference a Memsim.Trace.Read p
              | 1 -> Memsim.Level.access reference a Memsim.Trace.Write p
              | 2 -> Memsim.Level.access reference a Memsim.Trace.Alloc_write p
              | _ -> Memsim.Level.write_back reference a p)
            events;
          let batched = mk ~policy ~size:512 ~block:32 () in
          let third = n / 3 in
          Memsim.Level.access_chunk batched packed 0 third;
          Memsim.Level.access_chunk batched packed third (n - third);
          stats reference = stats batched
          && String.equal (snap reference) (snap batched))
        [ Memsim.Cache.Write_validate; Memsim.Cache.Fetch_on_write ])

let recording_roundtrip_prop =
  (* Both on-disk formats round-trip arbitrary traces exactly, v3
     mapped and decoded alike.  The address stride is large so the v2
     deltas span one to four varint bytes, and slabs are small so chunk
     boundaries land mid-file. *)
  QCheck.Test.make ~count:50 ~name:"v2/v3 file roundtrip = in-memory recording"
    (QCheck.make trace_gen_phased)
    (fun events ->
      let rec_ = Memsim.Recording.create ~initial_capacity:32 () in
      let sink = Memsim.Recording.sink rec_ in
      List.iter
        (fun (addr, k, coll) ->
          let addr = addr * 4092 in
          let kind =
            match k with
            | 0 -> Memsim.Trace.Read
            | 1 -> Memsim.Trace.Write
            | _ -> Memsim.Trace.Alloc_write
          in
          sink.Memsim.Trace.access addr kind
            (if coll then collector else mutator))
        events;
      let path = Filename.temp_file "repro" ".trace" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Memsim.Recording.save ~format:Memsim.Recording.V2 rec_ path;
          let v2 = Memsim.Recording.load path in
          Memsim.Recording.save ~format:Memsim.Recording.V3 rec_ path;
          let v3 = Memsim.Recording.load path in
          let v3_unmapped = Memsim.Recording.load_unmapped path in
          Memsim.Recording.equal rec_ v2
          && Memsim.Recording.equal rec_ v3
          && Memsim.Recording.equal rec_ v3_unmapped))

(* On one level, O_gc is the paper's sec. 6 formula
   ((M_gc + dM_prog) * P + I_gc + dI_prog) / I_prog, written out here
   as the reference. *)
let o_gc_formula_prop =
  QCheck.Test.make ~count:500 ~name:"one-level O_gc = the paper's formula"
    QCheck.(
      quad
        (pair bool (oneofl Memsim.Sweep.paper_block_sizes))
        (triple (int_range 0 1_000_000) (int_range 0 1_000_000)
           (int_range 0 1_000_000))
        (pair (int_range 1 100_000_000) (int_range 1 100_000_000))
        (int_range 0 10_000_000))
    (fun ((slow, block), (m_base, m_prog, m_gc), (i_base, i_prog), i_gc) ->
      let cpu = if slow then Memsim.Timing.Slow else Memsim.Timing.Fast in
      let baseline =
        one_level_run ~block ~insns:i_base ~collector_insns:0 ~fetches:m_base
          ~collector_fetches:0
      in
      let collected =
        one_level_run ~block ~insns:i_prog ~collector_insns:i_gc
          ~fetches:m_prog ~collector_fetches:m_gc
      in
      let p = Memsim.Timing.miss_penalty cpu ~block_bytes:block in
      let expected =
        ((float_of_int (m_gc + (m_prog - m_base)) *. p)
         +. float_of_int (i_gc + (i_prog - i_base)))
        /. float_of_int i_base
      in
      let o = Core.Exp_gc.o_gc cpu ~baseline ~collected 0 in
      Float.abs (o -. expected) <= 1e-12 *. Float.abs expected)

let () =
  Alcotest.run "memsim"
    [ ( "timing",
        [ Alcotest.test_case "penalty table" `Quick test_penalties;
          Alcotest.test_case "overhead math" `Quick test_overhead_math
        ] );
      ( "cache",
        [ Alcotest.test_case "read miss then hit" `Quick test_read_miss_then_hit;
          Alcotest.test_case "direct-mapped conflicts" `Quick test_direct_mapped_conflict;
          Alcotest.test_case "write-validate avoids fetches" `Quick test_write_validate_no_fetch;
          Alcotest.test_case "sub-block validity" `Quick test_write_validate_subblock;
          Alcotest.test_case "word 63 validates (256b blocks)" `Quick test_word63_validates;
          Alcotest.test_case "fetch-on-write" `Quick test_fetch_on_write;
          Alcotest.test_case "collector phase" `Quick test_collector_phase;
          Alcotest.test_case "write-backs" `Quick test_writebacks;
          Alcotest.test_case "per-phase counters" `Quick test_per_phase_counters;
          Alcotest.test_case "mutator-phase writeback" `Quick
            test_per_phase_mutator_writeback;
          Alcotest.test_case "alloc-miss classification" `Quick test_alloc_miss_classification;
          Alcotest.test_case "per-block stats" `Quick test_block_stats;
          Alcotest.test_case "per-block stats guard" `Quick test_block_stats_guard;
          Alcotest.test_case "miss hook" `Quick test_miss_hook;
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "snapshot/restore roundtrip" `Quick
            test_snapshot_roundtrip;
          Alcotest.test_case "snapshot geometry guard" `Quick
            test_snapshot_geometry_guard;
          Alcotest.test_case "restore rejects corrupt line state" `Quick
            test_restore_rejects_corrupt_lines
        ] );
      ( "oracle",
        [ Alcotest.test_case "sequential reads within capacity" `Quick
            test_ground_truth_reads_fit;
          Alcotest.test_case "sequential reads at twice capacity" `Quick
            test_ground_truth_reads_double;
          Alcotest.test_case "sequential writes under write-validate" `Quick
            test_ground_truth_writes_validate
        ] );
      ( "sweep",
        [ Alcotest.test_case "fan-out" `Quick test_sweep;
          Alcotest.test_case "size labels" `Quick test_size_labels;
          Alcotest.test_case "run_parallel = serial" `Quick
            test_run_parallel_matches_serial
        ] );
      ( "chunks",
        [ Alcotest.test_case "codec roundtrip" `Quick test_chunk_codec ] );
      ( "assoc",
        [ Alcotest.test_case "LRU replacement" `Quick test_assoc_lru;
          Alcotest.test_case "conflict elimination" `Quick
            test_assoc_removes_conflicts;
          Alcotest.test_case "per-phase counters" `Quick test_assoc_per_phase;
          Alcotest.test_case "validation" `Quick test_assoc_validation
        ] );
      ( "hierarchy",
        [ Alcotest.test_case "refill path" `Quick test_hierarchy_refill;
          Alcotest.test_case "write-back path" `Quick
            test_hierarchy_writeback_path;
          Alcotest.test_case "chunked delivery = per-event" `Quick
            test_hierarchy_chunk_equiv;
          Alcotest.test_case "write-back propagates to memory" `Quick
            test_hierarchy_writeback_propagation;
          Alcotest.test_case "overhead math" `Quick test_hierarchy_overhead;
          Alcotest.test_case "validation" `Quick test_hierarchy_validation
        ] );
      ( "recording",
        [ Alcotest.test_case "record and replay" `Quick test_recording_replay;
          Alcotest.test_case "replay decodes in place" `Quick
            test_recording_replay_decode;
          Alcotest.test_case "file roundtrip" `Quick
            test_recording_file_roundtrip;
          Alcotest.test_case "bad file rejected" `Quick test_recording_bad_file;
          Alcotest.test_case "truncated file rejected" `Quick
            test_recording_truncated_file;
          Alcotest.test_case "v1 refused by its magic" `Quick
            test_recording_v1_refused;
          Alcotest.test_case "v3 unmapped corrupt word rejected" `Quick
            test_recording_unmapped_corrupt_word;
          Alcotest.test_case "v2 corrupt file rejected" `Quick
            test_recording_v2_corrupt;
          Alcotest.test_case "v3 on-disk layout pinned" `Quick
            test_recording_v3_spec;
          Alcotest.test_case "v3 corrupt file rejected" `Quick
            test_recording_v3_corrupt;
          Alcotest.test_case "v3 mapped recording is read-only" `Quick
            test_recording_v3_read_only;
          Alcotest.test_case "load errors name format and byte" `Quick
            test_recording_error_messages;
          Alcotest.test_case "load closes its descriptor" `Quick
            test_recording_load_closes_descriptor;
          Alcotest.test_case "v3 save = reference writer" `Quick
            test_recording_v3_save_reference;
          Alcotest.test_case "save to a full device raises Sys_error" `Quick
            test_recording_save_full_device;
          Alcotest.test_case "v3 re-save onto its mapped source" `Quick
            test_recording_v3_resave_own_path;
          Alcotest.test_case "pooled slabs poisoned, re-record equal" `Quick
            test_pool_poisoned_slabs;
          Alcotest.test_case "cleared slabs poisoned, re-record equal" `Quick
            test_pool_clear_poisoned;
          Alcotest.test_case "finished recording accepts appends" `Quick
            test_finished_recording_appends;
          Alcotest.test_case "mapped v3 view never pooled" `Quick
            test_pool_skips_mapped_view;
          Alcotest.test_case "released recording is empty" `Quick
            test_released_recording_is_empty;
          Alcotest.test_case "v2 byte count = saved file" `Quick
            test_saved_bytes_count
        ] );
      ( "kept",
        [ Alcotest.test_case "short producer evicts the LRU trace" `Quick
            test_kept_evicts_lru;
          Alcotest.test_case "pinned trace never evicted" `Quick
            test_kept_pinned;
          Alcotest.test_case "lease is read-only" `Quick
            test_kept_lease_read_only
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest invariants_prop;
          QCheck_alcotest.to_alcotest policy_dominance_prop;
          QCheck_alcotest.to_alcotest fow_equals_misses_prop;
          QCheck_alcotest.to_alcotest assoc_one_way_equals_direct_prop;
          QCheck_alcotest.to_alcotest assoc_inclusion_prop;
          QCheck_alcotest.to_alcotest chunk_equivalence_prop;
          QCheck_alcotest.to_alcotest recording_roundtrip_prop;
          QCheck_alcotest.to_alcotest o_gc_formula_prop
        ] )
    ]
