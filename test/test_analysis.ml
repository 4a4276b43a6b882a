(* Analyzer tests on hand-built and synthetic traces. *)

let mutator = Memsim.Trace.Mutator

(* A little trace driver: dynamic area starts at byte 4096; stack at
   2048. *)
let stats_config =
  { Analysis.Block_stats.block_bytes = 64;
    cache_bytes = 1024;
    dynamic_base = 4096;
    stack_base = 2048;
    stack_limit = 4096
  }

let feed bs events =
  let sink = Analysis.Block_stats.sink bs in
  List.iter (fun (addr, kind) -> sink.Memsim.Trace.access addr kind mutator) events

let alloc addr = (addr, Memsim.Trace.Alloc_write)
let read addr = (addr, Memsim.Trace.Read)
let write addr = (addr, Memsim.Trace.Write)

let test_one_cycle_blocks () =
  let bs = Analysis.Block_stats.create stats_config in
  (* Allocate two blocks, touch them immediately, never again. *)
  feed bs [ alloc 4096; read 4096; alloc 4160; read 4160 ];
  let s = Analysis.Block_stats.dynamic_summary bs in
  Alcotest.(check int) "two blocks" 2 s.Analysis.Block_stats.blocks;
  Alcotest.(check int) "both one-cycle" 2 s.Analysis.Block_stats.one_cycle;
  Alcotest.(check int) "no multi" 0 s.Analysis.Block_stats.multi_cycle

let test_multi_cycle_block () =
  let bs = Analysis.Block_stats.create stats_config in
  (* Block at 4096 is referenced again after the allocation pointer
     sweeps past its cache block (cache is 1024 bytes = 16 blocks). *)
  let sweep =
    List.concat_map (fun i -> [ alloc (4096 + (64 * i)) ]) (List.init 17 Fun.id)
  in
  feed bs (sweep @ [ read 4096 ]);
  let s = Analysis.Block_stats.dynamic_summary bs in
  Alcotest.(check int) "one multi-cycle block" 1 s.Analysis.Block_stats.multi_cycle;
  Alcotest.(check int) "it was active in 2 cycles" 1
    s.Analysis.Block_stats.multi_cycle_le4

let test_lifetimes () =
  let bs = Analysis.Block_stats.create stats_config in
  feed bs [ alloc 4096; read 8192; read 8192; read 4096 ];
  let ls = Analysis.Block_stats.lifetimes bs in
  Array.sort compare ls;
  (* block 4096: first event 1, last event 4 -> lifetime 3;
     block 8192: events 2..3 -> lifetime 1 *)
  Alcotest.(check (array int)) "lifetimes" [| 1; 3 |] ls;
  let cdf = Analysis.Block_stats.lifetime_cdf bs ~points:[ 0; 1; 3 ] in
  Alcotest.(check (list (pair int (float 1e-9))))
    "cdf" [ (0, 0.0); (1, 0.5); (3, 1.0) ] cdf

let test_refcounts () =
  let bs = Analysis.Block_stats.create stats_config in
  feed bs (alloc 4096 :: List.init 33 (fun _ -> read 4096));
  let lo, hi = Analysis.Block_stats.median_refcount_bucket bs in
  Alcotest.(check (pair int int)) "34 refs lands in 32-63" (32, 63) (lo, hi)

let test_busy_blocks () =
  let bs = Analysis.Block_stats.create stats_config in
  (* 2000 refs total; one static block gets 1200 of them, one stack
     block 600, the rest scattered over dynamic blocks. *)
  let hot_static = List.init 1200 (fun _ -> read 0) in
  let hot_stack = List.init 600 (fun _ -> write 2048) in
  let cold =
    List.concat_map (fun i -> [ alloc (4096 + (64 * i)) ]) (List.init 200 Fun.id)
  in
  feed bs (hot_static @ hot_stack @ cold);
  let b = Analysis.Block_stats.busy_summary bs in
  Alcotest.(check int) "threshold" 2 b.Analysis.Block_stats.threshold;
  Alcotest.(check int) "busy static" 1 b.Analysis.Block_stats.busy_static;
  Alcotest.(check int) "busy stack" 1 b.Analysis.Block_stats.busy_stack;
  Alcotest.(check bool) "busiest fraction = 0.6" true
    (Float.abs (b.Analysis.Block_stats.busiest_fraction -. 0.6) < 0.001);
  Alcotest.(check bool) "busy refs fraction >= 0.9" true
    (b.Analysis.Block_stats.busy_ref_fraction >= 0.9)

let test_collector_events_ignored () =
  let bs = Analysis.Block_stats.create stats_config in
  let sink = Analysis.Block_stats.sink bs in
  sink.Memsim.Trace.access 4096 Memsim.Trace.Alloc_write Memsim.Trace.Collector;
  Alcotest.(check int) "no refs counted" 0 (Analysis.Block_stats.total_refs bs);
  Alcotest.(check int) "no blocks" 0
    (Analysis.Block_stats.dynamic_summary bs).Analysis.Block_stats.blocks

(* --- Activity --------------------------------------------------------- *)

let test_activity () =
  let activity =
    Analysis.Activity.create
      (Memsim.Level.create
         (Memsim.Level.config ~size_bytes:1024 ~block_bytes:64 ~ways:1 ()))
  in
  let sink = Analysis.Activity.sink activity in
  (* Block 0: thrashing (two conflicting addresses alternating).
     Block 1: busy and well-behaved. *)
  for _ = 1 to 50 do
    sink.Memsim.Trace.access 0 Memsim.Trace.Read mutator;
    sink.Memsim.Trace.access 1024 Memsim.Trace.Read mutator
  done;
  for _ = 1 to 300 do
    sink.Memsim.Trace.access 64 Memsim.Trace.Read mutator
  done;
  let r = Analysis.Activity.analyze activity in
  Alcotest.(check int) "points = cache blocks" 16 (Array.length r.Analysis.Activity.points);
  Alcotest.(check int) "total refs" 400 r.Analysis.Activity.total_refs;
  (* the last-ranked point is the busy good block *)
  let last = r.Analysis.Activity.points.(15) in
  Alcotest.(check int) "busiest refs" 300 last.Analysis.Activity.refs;
  Alcotest.(check bool) "final drop happens" true
    (r.Analysis.Activity.final_drop_factor > 1.0);
  Alcotest.(check bool) "global ratio sane" true
    (r.Analysis.Activity.global_miss_ratio > 0.2
     && r.Analysis.Activity.global_miss_ratio < 0.3);
  (* rendering does not raise and mentions the ratio *)
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Analysis.Activity.render ppf r;
  Format.pp_print_flush ppf ();
  Alcotest.(check bool) "render output" true (Buffer.length buf > 100)

(* --- Miss plot --------------------------------------------------------- *)

let test_miss_plot () =
  let cache =
    Memsim.Level.create
      (Memsim.Level.config ~size_bytes:1024 ~block_bytes:64 ~ways:1 ())
  in
  let plot =
    Analysis.Miss_plot.create ~level:cache ~rows:16 ~refs_per_col:100 ()
  in
  let sink = Analysis.Miss_plot.sink plot in
  (* a linear allocation sweep *)
  for i = 0 to 399 do
    sink.Memsim.Trace.access (i * 64) Memsim.Trace.Alloc_write mutator
  done;
  Alcotest.(check int) "columns" 4 (Analysis.Miss_plot.columns plot);
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Analysis.Miss_plot.render ppf plot;
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  Alcotest.(check bool) "contains dots" true (String.contains out '.');
  (* the cache behind the plot saw everything *)
  Alcotest.(check int) "cache refs" 400 (Memsim.Level.stats cache).Memsim.Cache.refs

(* --- Ascii canvas ------------------------------------------------------ *)

let test_ascii () =
  let c = Analysis.Ascii.create ~rows:3 ~cols:8 in
  Analysis.Ascii.set c ~row:0 ~col:0 'a';
  Analysis.Ascii.set c ~row:2 ~col:7 'z';
  Analysis.Ascii.set c ~row:5 ~col:0 'x';
  (* ignored: out of range *)
  Analysis.Ascii.set c ~row:0 ~col:99 'x';
  let buf = Buffer.create 64 in
  let ppf = Format.formatter_of_buffer buf in
  Analysis.Ascii.render ppf c;
  Format.pp_print_flush ppf ();
  let lines = String.split_on_char '\n' (Buffer.contents buf) in
  Alcotest.(check int) "three rows plus trailing" 4 (List.length lines);
  Alcotest.(check string) "first row" "|a" (List.nth lines 0);
  Alcotest.(check string) "last row" "|       z" (List.nth lines 2)

(* --- Recorded vs live ---------------------------------------------------- *)

(* The §7 drivers record a run and replay the recording into the
   analyzers.  On every workload that must give exactly what the
   analyzers compute when they hang off a live machine's sink. *)

let heap_bytes = 48 * 1024 * 1024

let analyzers () =
  let dm size_bytes =
    Memsim.Level.create
      (Memsim.Level.config ~size_bytes ~block_bytes:64 ~ways:1 ())
  in
  let mcfg = Vscheme.Machine.default_config in
  ( Analysis.Activity.create (dm (64 * 1024)),
    Analysis.Miss_plot.create ~level:(dm (64 * 1024)) ~rows:32
      ~refs_per_col:16384 (),
    Analysis.Block_stats.create
      { Analysis.Block_stats.block_bytes = 64;
        cache_bytes = 64 * 1024;
        dynamic_base = Vscheme.Machine.dynamic_base_bytes mcfg;
        stack_base = Vscheme.Machine.stack_base_bytes mcfg;
        stack_limit = Vscheme.Machine.dynamic_base_bytes mcfg
      } )

let sinks (activity, plot, bs) =
  [ Analysis.Activity.sink activity;
    Analysis.Miss_plot.sink plot;
    Analysis.Block_stats.sink bs
  ]

(* Run [w] on a fresh machine whose sink feeds every one of [sinks]. *)
let run_live ?(pathological_layout = false) w sinks =
  let machine =
    Vscheme.Machine.create
      { Vscheme.Machine.default_config with
        heap_bytes;
        pathological_layout;
        sink =
          { Memsim.Trace.access =
              (fun addr kind phase ->
                List.iter (fun s -> s.Memsim.Trace.access addr kind phase) sinks)
          }
      }
  in
  Workloads.Workload.load machine w;
  ignore (Workloads.Workload.run machine w ~scale:1)

let replay_recorded ?pathological_layout w sinks =
  let _, recording =
    Core.Runner.record ?pathological_layout ~heap_bytes ~scale:1 w
  in
  List.iter (Memsim.Recording.replay recording) sinks;
  Memsim.Recording.release recording

let rendered plot =
  Format.asprintf "%a" (fun ppf p -> Analysis.Miss_plot.render ppf p) plot

let test_recorded_matches_live w () =
  let ((la, lp, lb) as live) = analyzers () in
  let ((ra, rp, rb) as recorded) = analyzers () in
  run_live w (sinks live);
  replay_recorded w (sinks recorded);
  Alcotest.(check bool) "activity" true
    (Analysis.Activity.analyze la = Analysis.Activity.analyze ra);
  Alcotest.(check int) "miss-plot columns" (Analysis.Miss_plot.columns lp)
    (Analysis.Miss_plot.columns rp);
  Alcotest.(check string) "miss-plot grid" (rendered lp) (rendered rp);
  Alcotest.(check int) "block-stats refs"
    (Analysis.Block_stats.total_refs lb)
    (Analysis.Block_stats.total_refs rb);
  Alcotest.(check bool) "block-stats dynamic summary" true
    (Analysis.Block_stats.dynamic_summary lb
     = Analysis.Block_stats.dynamic_summary rb);
  Alcotest.(check bool) "block-stats busy summary" true
    (Analysis.Block_stats.busy_summary lb = Analysis.Block_stats.busy_summary rb);
  Alcotest.(check (array int)) "block-stats lifetimes"
    (Analysis.Block_stats.lifetimes lb)
    (Analysis.Block_stats.lifetimes rb);
  Alcotest.(check (array int)) "block-stats refcounts"
    (Analysis.Block_stats.refcount_histogram lb)
    (Analysis.Block_stats.refcount_histogram rb)

(* E-A2's stack-aliasing layout is just another recorded cell. *)
let test_recorded_matches_live_pathological () =
  let w = Workloads.Workload.selfcomp in
  let live, _, _ = analyzers () in
  let recorded, _, _ = analyzers () in
  run_live ~pathological_layout:true w [ Analysis.Activity.sink live ];
  replay_recorded ~pathological_layout:true w
    [ Analysis.Activity.sink recorded ];
  Alcotest.(check bool) "activity" true
    (Analysis.Activity.analyze live = Analysis.Activity.analyze recorded)

(* Property: the one-cycle count never exceeds the block count, and the
   CDF is monotone. *)
let summary_prop =
  QCheck.Test.make ~count:100 ~name:"block-stats invariants on random traces"
    QCheck.(list_of_size (QCheck.Gen.int_bound 300)
              (pair (int_bound 16384) (int_bound 2)))
    (fun events ->
      let bs = Analysis.Block_stats.create stats_config in
      let sink = Analysis.Block_stats.sink bs in
      List.iter
        (fun (a, k) ->
          let addr = a land lnot 3 in
          let kind =
            match k with
            | 0 -> Memsim.Trace.Read
            | 1 -> Memsim.Trace.Write
            | _ -> Memsim.Trace.Alloc_write
          in
          sink.Memsim.Trace.access addr kind mutator)
        events;
      let s = Analysis.Block_stats.dynamic_summary bs in
      let cdf =
        Analysis.Block_stats.lifetime_cdf bs ~points:[ 1; 10; 100; 1000 ]
      in
      let monotone =
        let rec ok = function
          | (_, a) :: ((_, b) :: _ as rest) -> a <= b && ok rest
          | _ -> true
        in
        ok cdf
      in
      s.Analysis.Block_stats.one_cycle + s.Analysis.Block_stats.multi_cycle
      = s.Analysis.Block_stats.blocks
      && s.Analysis.Block_stats.multi_cycle_le4 <= s.Analysis.Block_stats.multi_cycle
      && monotone)

let () =
  Alcotest.run "analysis"
    [ ( "block-stats",
        [ Alcotest.test_case "one-cycle blocks" `Quick test_one_cycle_blocks;
          Alcotest.test_case "multi-cycle block" `Quick test_multi_cycle_block;
          Alcotest.test_case "lifetimes and cdf" `Quick test_lifetimes;
          Alcotest.test_case "refcount buckets" `Quick test_refcounts;
          Alcotest.test_case "busy blocks" `Quick test_busy_blocks;
          Alcotest.test_case "collector events ignored" `Quick
            test_collector_events_ignored
        ] );
      ("activity", [ Alcotest.test_case "activity analysis" `Quick test_activity ]);
      ("miss-plot", [ Alcotest.test_case "sweep plot" `Quick test_miss_plot ]);
      ("ascii", [ Alcotest.test_case "canvas" `Quick test_ascii ]);
      ( "recorded",
        List.map
          (fun w ->
            Alcotest.test_case w.Workloads.Workload.name `Quick
              (test_recorded_matches_live w))
          Workloads.Workload.all
        @ [ Alcotest.test_case "selfcomp, stack-aliasing layout" `Quick
              test_recorded_matches_live_pathological
          ] );
      ("properties", [ QCheck_alcotest.to_alcotest summary_prop ])
    ]
