(* The perf smoke: Bechamel microbenchmarks of the simulator's own hot
   paths plus same-run comparisons of its engines (host performance,
   not simulated time; the paper's tables come from `repro run`).

   Before writing BENCH_metrics.json the bench holds its numbers to
   [hard_bounds] and [soft_bounds].  Same-run ratios do not depend on
   the host, so a violated one fails the run (exit 1); absolute
   timings and throughputs only print a WARN line.  Every engine comparison also asserts that the
   engines' statistics are bit-identical, and the serve pass that its
   hit count is exact. *)

let ppf = Format.std_formatter

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* --- Bechamel microbenchmarks ---------------------------------------- *)

(* 1k mixed allocation writes and reads, delivered pre-packed through
   the batched consumer of the direct-mapped §4 cache (a 1-way level). *)
let cache_chunk_bench =
  let cache =
    Memsim.Level.create
      (Memsim.Level.config ~size_bytes:(64 * 1024) ~block_bytes:64 ~ways:1 ())
  in
  let chunks =
    Array.init 8 (fun c ->
        Memsim.Chunk.of_array
          (Array.init 1000 (fun i ->
               let addr = ((c * 7919) + (i * 24)) land 0xfffffc in
               Memsim.Chunk.pack addr
                 (if i land 3 = 0 then Memsim.Trace.Alloc_write
                  else Memsim.Trace.Read)
                 Memsim.Trace.Mutator)))
  in
  let counter = ref 0 in
  Bechamel.Test.make ~name:"cache-access-chunk-1k"
    (Bechamel.Staged.stage (fun () ->
         Memsim.Level.access_chunk cache chunks.(!counter land 7) 0 1000;
         incr counter))

let vm_bench =
  let machine =
    Vscheme.Machine.create
      { Vscheme.Machine.default_config with heap_bytes = 32 * 1024 * 1024 }
  in
  ignore
    (Vscheme.Machine.eval_string machine
       "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))");
  Bechamel.Test.make ~name:"vscheme-fib-15"
    (Bechamel.Staged.stage (fun () ->
         ignore (Vscheme.Machine.eval_string machine "(fib 15)")))

(* Trace generation: the same 1k loads through Vscheme.Mem, delivered
   to a Recording through the generic closure sink vs. appended by the
   fast path (record_into).  The recording is drained periodically so
   the loop measures append cost, not allocation of an ever-growing
   slab list. *)
let trace_batches_before_reset = 1024

let trace_append_sink_bench =
  let recording = Memsim.Recording.create () in
  let mem =
    Vscheme.Mem.create ~sink:(Memsim.Recording.sink recording) ~words:65536
  in
  let t = ref 0 in
  let batches = ref 0 in
  Bechamel.Test.make ~name:"trace-append-sink-1k"
    (Bechamel.Staged.stage (fun () ->
         for i = 0 to 999 do
           ignore (Vscheme.Mem.read mem ((!t + (i * 7)) land 0xffff))
         done;
         t := !t + 4096;
         incr batches;
         if !batches >= trace_batches_before_reset then begin
           batches := 0;
           Memsim.Recording.clear recording
         end))

let trace_append_direct_bench =
  let recording = Memsim.Recording.create () in
  let mem = Vscheme.Mem.create ~sink:Memsim.Trace.null ~words:65536 in
  Vscheme.Mem.record_into mem recording;
  let t = ref 0 in
  let batches = ref 0 in
  Bechamel.Test.make ~name:"trace-append-direct-1k"
    (Bechamel.Staged.stage (fun () ->
         for i = 0 to 999 do
           ignore (Vscheme.Mem.read mem ((!t + (i * 7)) land 0xffff))
         done;
         t := !t + 4096;
         incr batches;
         if !batches >= trace_batches_before_reset then begin
           batches := 0;
           Vscheme.Mem.sync_recording mem;
           Memsim.Recording.clear recording;
           Vscheme.Mem.record_into mem recording
         end))

(* The floor under both append paths: pack and store 1k events
   straight into an off-heap slab, no VM dispatch at all.  The gap
   between this and trace-append-direct-1k is what Mem.read's
   address-check-plus-load costs on top of the raw store. *)
let trace_append_bigarray_bench =
  let buf = Memsim.Chunk.create_buf 65536 in
  let pos = ref 0 in
  Bechamel.Test.make ~name:"trace-append-bigarray-1k"
    (Bechamel.Staged.stage (fun () ->
         let p = if !pos + 1000 > 65536 then 0 else !pos in
         for i = 0 to 999 do
           Bigarray.Array1.unsafe_set buf (p + i)
             (Memsim.Chunk.pack ((i * 8) land 0xffff)
                (if i land 3 = 0 then Memsim.Trace.Alloc_write
                 else Memsim.Trace.Read)
                Memsim.Trace.Mutator)
         done;
         pos := p + 1000))

(* Telemetry hot paths: a counter update against a disabled registry
   (the cost every instrumentation site pays when telemetry is off)
   vs. an enabled one. *)
let obs_counter_disabled_bench =
  let reg = Obs.Metrics.create ~enabled:false () in
  let c = Obs.Metrics.counter reg "bench.count" in
  Bechamel.Test.make ~name:"obs-counter-disabled-1k"
    (Bechamel.Staged.stage (fun () ->
         for _ = 1 to 1000 do
           Obs.Metrics.Counter.incr c
         done))

let obs_counter_enabled_bench =
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter reg "bench.count" in
  Bechamel.Test.make ~name:"obs-counter-enabled-1k"
    (Bechamel.Staged.stage (fun () ->
         for _ = 1 to 1000 do
           Obs.Metrics.Counter.incr c
         done))

let run_perf () =
  let open Bechamel in
  let open Toolkit in
  Format.fprintf ppf
    "@.==== simulator microbenchmarks (host performance, Bechamel) ====@.";
  let grouped =
    Test.make_grouped ~name:"perf" ~fmt:"%s %s"
      [ cache_chunk_bench; vm_bench; trace_append_sink_bench;
        trace_append_direct_bench; trace_append_bigarray_bench;
        obs_counter_disabled_bench; obs_counter_enabled_bench ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1500 ~quota:(Time.second 0.8) ~kde:(Some 500) ()
  in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  List.filter_map
    (fun (name, r) ->
      match Analyze.OLS.estimates r with
      | Some [ est ] ->
        Format.fprintf ppf "%-32s %14.1f ns/run@." name est;
        Some (name, est)
      | Some _ | None ->
        Format.fprintf ppf "%-32s (no estimate)@." name;
        None)
    (List.sort compare rows)

(* --- Sweep engine: per-event vs chunked vs domain-parallel ------------- *)

(* One recorded trace, the full 40-configuration paper grid, three
   delivery mechanisms.  Parallel statistics are checked against the
   serial oracle before the timings are reported. *)
let measure_sweep () =
  let w = Workloads.Workload.nbody in
  let _, recording = Core.Runner.record ~scale:1 w in
  let events = Memsim.Recording.length recording in
  let grid () =
    Memsim.Sweep.create
      (Memsim.Sweep.grid ~cache_sizes:Memsim.Sweep.paper_cache_sizes
         ~block_sizes:Memsim.Sweep.paper_block_sizes ())
  in
  let per_event_sw = grid () in
  let (), per_event_s =
    time (fun () ->
        Memsim.Recording.replay recording (Memsim.Sweep.sink per_event_sw))
  in
  let serial_sw = grid () in
  let (), serial_s =
    time (fun () ->
        Memsim.Sweep.hier_run_serial (Memsim.Sweep.hiers serial_sw) recording)
  in
  let jobs = if Core.Runner.jobs () > 1 then Core.Runner.jobs () else 4 in
  let parallel_sw = grid () in
  let (), parallel_s =
    time (fun () ->
        Memsim.Sweep.hier_run_parallel ~jobs
          (Memsim.Sweep.hiers parallel_sw)
          recording)
  in
  let identical =
    Memsim.Sweep.results serial_sw = Memsim.Sweep.results parallel_sw
    && Memsim.Sweep.results serial_sw = Memsim.Sweep.results per_event_sw
  in
  if not identical then
    failwith "sweep-serial-vs-parallel: statistics diverged across engines";
  let caches = Array.length (Memsim.Sweep.hiers serial_sw) in
  let throughput dt = float_of_int (events * caches) /. dt in
  Format.fprintf ppf
    "@.==== sweep-serial-vs-parallel (%s, %d events, %d caches) ====@."
    w.Workloads.Workload.name events caches;
  Format.fprintf ppf
    "per-event %.3fs   chunked %.3fs (%.2fx)   parallel --jobs %d %.3fs \
     (%.2fx vs chunked)   stats identical@."
    per_event_s serial_s (per_event_s /. serial_s) jobs parallel_s
    (serial_s /. parallel_s);
  ( "sweep-serial-vs-parallel",
    Obs.Json.Obj
      [ ("workload", Obs.Json.Str w.Workloads.Workload.name);
        ("events", Obs.Json.Int events);
        ("caches", Obs.Json.Int caches);
        ("jobs", Obs.Json.Int jobs);
        ("per_event_s", Obs.Json.Float per_event_s);
        ("serial_s", Obs.Json.Float serial_s);
        ("parallel_s", Obs.Json.Float parallel_s);
        ("serial_events_per_s", Obs.Json.Float (throughput serial_s));
        ("parallel_events_per_s", Obs.Json.Float (throughput parallel_s));
        ("speedup_chunk_vs_per_event",
         Obs.Json.Float (per_event_s /. serial_s));
        ("speedup_parallel_vs_serial", Obs.Json.Float (serial_s /. parallel_s));
        ("host_domains",
         Obs.Json.Int (Domain.recommended_domain_count ()));
        ("identical_stats", Obs.Json.Bool identical)
      ] )

(* Time [drive] [runs] times, each on fresh state from [make] and
   after settling the GC so no inherited collection debt lands inside
   the window, and keep the best time with the last state: the
   simulation is deterministic, so repetition only strips scheduler
   and allocator noise. *)
let best ?(runs = 5) make drive =
  let rec go k best_s last =
    if k = 0 then (best_s, last)
    else
      let e = make () in
      Gc.full_major ();
      let (), s = time (fun () -> drive e) in
      go (k - 1) (Float.min best_s s) e
  in
  go runs infinity (make ())

(* Two direct-mapped cells replayed together ([Level.access_chunk2]:
   each event read once, both cells stepped on it) against the same
   two cells replayed one pass each ([Level.access_chunk] twice), on
   every workload's trace.  The cells are the golden grid's corners.
   A single pass over the smallest trace takes a few milliseconds, so
   each timed sample repeats its pass over [reps] fresh pairs of
   cells, the count calibrated once per workload so the single side
   runs for at least [min_sample_s]; both sides use the same count.
   Each side keeps its best of nine samples, the two sides alternate
   sample by sample and take turns going first, so that neither a
   noisy stretch of the host nor the cost of following the other side
   lands on one side only; each round's single/pair ratio is printed.
   Both sides must end [Level.same]; the smallest per-workload ratio
   of the best times is speedup_pair_vs_single, held to a hard
   bound. *)
let min_sample_s = 0.05

let measure_grid_pair () =
  Format.fprintf ppf
    "@.==== grid-pair (two direct-mapped cells, one pass vs two) ====@.";
  let make () =
    Array.map Memsim.Level.create
      [| Memsim.Level.config ~size_bytes:(Memsim.Sweep.kb 64) ~block_bytes:32
           ~ways:1 ();
         Memsim.Level.config ~size_bytes:(Memsim.Sweep.kb 512)
           ~block_bytes:128 ~ways:1 () |]
  in
  let rows =
    List.map
      (fun (w : Workloads.Workload.t) ->
        let _, recording = Core.Runner.record ~scale:1 w in
        let events = Memsim.Recording.length recording in
        let single_pass ls =
          Array.iter
            (fun l ->
              Memsim.Recording.iter_chunks recording (fun buf len ->
                  Memsim.Level.access_chunk l buf 0 len))
            ls
        and pair_pass ls =
          Memsim.Recording.iter_chunks recording (fun buf len ->
              Memsim.Level.access_chunk2 ls.(0) ls.(1) buf 0 len)
        in
        (* A warm-up pass, then one timed pass sets the repeat count. *)
        single_pass (make ());
        let reps =
          let once, _ = best ~runs:1 make single_pass in
          max 1 (int_of_float (Float.ceil (min_sample_s /. once)))
        in
        (* [reps] passes, each over fresh cells made before the clock
           starts; the last pass's cells are kept for the check. *)
        let sample pass =
          let cells = Array.init reps (fun _ -> make ()) in
          Gc.full_major ();
          let (), s = time (fun () -> Array.iter pass cells) in
          (s, cells.(reps - 1))
        in
        let rec rounds k ratios (single_s, single) (pair_s, pair) =
          if k = 9 then (List.rev ratios, (single_s, single), (pair_s, pair))
          else
            let (s1, l1), (s2, l2) =
              if k mod 2 = 0 then
                let a = sample single_pass in
                (a, sample pair_pass)
              else
                let b = sample pair_pass in
                (sample single_pass, b)
            in
            rounds (k + 1) ((s1 /. s2) :: ratios)
              (Float.min single_s s1, l1)
              (Float.min pair_s s2, l2)
        in
        let ratios, (single_s, single), (pair_s, pair) =
          rounds 0 [] (infinity, make ()) (infinity, make ())
        in
        let single_s = single_s /. float_of_int reps
        and pair_s = pair_s /. float_of_int reps in
        Memsim.Recording.release recording;
        if not (Array.for_all2 Memsim.Level.same single pair) then
          failwith
            ("grid-pair: the paired cells diverged from the single passes on "
           ^ w.Workloads.Workload.name);
        Format.fprintf ppf
          "%-10s %9d events   single %.4fs   pair %.4fs per pass (%.2fx, \
           %d pass(es) per sample)   levels same@.           rounds:%s@."
          w.Workloads.Workload.name events single_s pair_s
          (single_s /. pair_s) reps
          (String.concat "" (List.map (Printf.sprintf " %.2fx") ratios));
        (w.Workloads.Workload.name, events, reps, single_s, pair_s))
      Workloads.Workload.all
  in
  let speedup =
    List.fold_left
      (fun acc (_, _, _, single_s, pair_s) ->
        Float.min acc (single_s /. pair_s))
      infinity rows
  in
  Format.fprintf ppf "pair speedup (worst workload): %.2fx@." speedup;
  ( "grid-pair",
    Obs.Json.Obj
      [ ("workloads",
         Obs.Json.Obj
           (List.map
              (fun (name, events, reps, single_s, pair_s) ->
                ( name,
                  Obs.Json.Obj
                    [ ("events", Obs.Json.Int events);
                      ("passes_per_sample", Obs.Json.Int reps);
                      ("single_s", Obs.Json.Float single_s);
                      ("pair_s", Obs.Json.Float pair_s);
                      ("single_ns_per_event_cell",
                       Obs.Json.Float
                         (single_s *. 1e9 /. float_of_int (2 * events)));
                      ("pair_ns_per_event_cell",
                       Obs.Json.Float
                         (pair_s *. 1e9 /. float_of_int (2 * events)));
                      ("speedup", Obs.Json.Float (single_s /. pair_s))
                    ] ))
              rows));
        ("speedup_pair_vs_single", Obs.Json.Float speedup);
        ("identical_state", Obs.Json.Bool true)
      ] )

(* Fused miss-stream hierarchy vs the hooked per-event oracle: every
   workload through the 3-level Coffee Lake preset.  Per-level
   statistics are asserted bit-identical before any timing is
   reported; the aggregate hooked/fused ratio is hierarchy_speedup,
   held to a hard bound. *)
let measure_hierarchy () =
  let cfg = Memsim.Hier.preset Memsim.Hier.Cfl in
  Format.fprintf ppf "@.==== hierarchy-sweep (cfl 3-level, hooked vs fused) ====@.";
  let rows =
    List.map
      (fun (w : Workloads.Workload.t) ->
        let _, recording = Core.Runner.record ~scale:1 w in
        let events = Memsim.Recording.length recording in
        (* The hooked oracle consumes traces per event through its
           sink; the fused engine takes the same recording by chunk. *)
        let hooked_s, hooked =
          best
            (fun () -> Memsim.Hier.create ~fused:false cfg)
            (fun h ->
              Memsim.Recording.replay recording (Memsim.Hier.sink h))
        in
        let fused_s, fused =
          best
            (fun () -> Memsim.Hier.create cfg)
            (fun h ->
              Memsim.Recording.iter_chunks recording (fun buf len ->
                  Memsim.Hier.access_chunk h buf 0 len))
        in
        if Memsim.Hier.stats hooked <> Memsim.Hier.stats fused then
          failwith
            ("hierarchy-sweep: fused statistics diverged from the hooked \
              oracle on " ^ w.Workloads.Workload.name);
        Format.fprintf ppf
          "%-10s %9d events   hooked %.3fs   fused %.3fs (%.2fx)   stats \
           identical@."
          w.Workloads.Workload.name events hooked_s fused_s
          (hooked_s /. fused_s);
        (w.Workloads.Workload.name, events, hooked_s, fused_s))
      Workloads.Workload.all
  in
  let hooked_total =
    List.fold_left (fun acc (_, _, h, _) -> acc +. h) 0.0 rows
  in
  let fused_total =
    List.fold_left (fun acc (_, _, _, f) -> acc +. f) 0.0 rows
  in
  let speedup = hooked_total /. fused_total in
  Format.fprintf ppf "hierarchy speedup (all workloads): %.2fx@." speedup;
  ( "hierarchy-sweep",
    Obs.Json.Obj
      [ ("cpu", Obs.Json.Str "cfl");
        ("levels", Obs.Json.Int 3);
        ("workloads",
         Obs.Json.Obj
           (List.map
              (fun (name, events, hooked_s, fused_s) ->
                ( name,
                  Obs.Json.Obj
                    [ ("events", Obs.Json.Int events);
                      ("hooked_s", Obs.Json.Float hooked_s);
                      ("fused_s", Obs.Json.Float fused_s);
                      ("hooked_events_per_s",
                       Obs.Json.Float (float_of_int events /. hooked_s));
                      ("fused_events_per_s",
                       Obs.Json.Float (float_of_int events /. fused_s));
                      ("speedup", Obs.Json.Float (hooked_s /. fused_s))
                    ] ))
              rows));
        ("hooked_total_s", Obs.Json.Float hooked_total);
        ("fused_total_s", Obs.Json.Float fused_total);
        ("hierarchy_speedup", Obs.Json.Float speedup);
        ("identical_stats", Obs.Json.Bool true)
      ] )

(* The five CPU presets share one L1 and two L2s.  A fleet replay
   simulates each shared prefix once (7 level simulations instead of
   15); replaying each preset alone through its own one-hierarchy
   [hier_run_serial] is its oracle.  Every level's statistics are
   asserted identical before the timing is reported; the aggregate
   alone/fleet ratio is fleet_speedup, held to a hard bound. *)
let measure_fleet () =
  Format.fprintf ppf
    "@.==== hierarchy-fleet (five presets, one fleet vs each alone) ====@.";
  let make () =
    Array.of_list
      (List.map
         (fun cpu -> Memsim.Hier.create (Memsim.Hier.preset cpu))
         Memsim.Hier.all_cpus)
  in
  let rows =
    List.map
      (fun (w : Workloads.Workload.t) ->
        let _, recording = Core.Runner.record ~scale:1 w in
        let events = Memsim.Recording.length recording in
        let alone_s, alone =
          best ~runs:3 make (fun hs ->
              Array.iter
                (fun h -> Memsim.Sweep.hier_run_serial [| h |] recording)
                hs)
        in
        let fleet_s, fleet =
          best ~runs:3 make (fun hs -> Memsim.Sweep.hier_run_serial hs recording)
        in
        Memsim.Recording.release recording;
        if Array.map Memsim.Hier.stats alone <> Array.map Memsim.Hier.stats fleet
        then
          failwith
            ("hierarchy-fleet: shared-prefix statistics diverged from the \
              one-hierarchy replays on " ^ w.Workloads.Workload.name);
        Format.fprintf ppf
          "%-10s %9d events   alone %.3fs   fleet %.3fs (%.2fx)   stats \
           identical@."
          w.Workloads.Workload.name events alone_s fleet_s
          (alone_s /. fleet_s);
        (w.Workloads.Workload.name, events, alone_s, fleet_s))
      Workloads.Workload.all
  in
  let total f = List.fold_left (fun acc row -> acc +. f row) 0.0 rows in
  let alone_total = total (fun (_, _, a, _) -> a) in
  let fleet_total = total (fun (_, _, _, f) -> f) in
  let events = List.fold_left (fun acc (_, e, _, _) -> acc + e) 0 rows in
  let ns_per_event s = s *. 1e9 /. float_of_int events in
  let speedup = alone_total /. fleet_total in
  Format.fprintf ppf
    "fleet speedup (all workloads): %.2fx   alone %.1f ns/event   fleet %.1f \
     ns/event@."
    speedup (ns_per_event alone_total) (ns_per_event fleet_total);
  ( "hierarchy-fleet",
    Obs.Json.Obj
      [ ("cpus",
         Obs.Json.List
           (List.map
              (fun c -> Obs.Json.Str (Memsim.Hier.cpu_label c))
              Memsim.Hier.all_cpus));
        ("workloads",
         Obs.Json.Obj
           (List.map
              (fun (name, events, alone_s, fleet_s) ->
                ( name,
                  Obs.Json.Obj
                    [ ("events", Obs.Json.Int events);
                      ("alone_s", Obs.Json.Float alone_s);
                      ("fleet_s", Obs.Json.Float fleet_s);
                      ("speedup", Obs.Json.Float (alone_s /. fleet_s))
                    ] ))
              rows));
        ("alone_total_s", Obs.Json.Float alone_total);
        ("fleet_total_s", Obs.Json.Float fleet_total);
        ("alone_ns_per_event", Obs.Json.Float (ns_per_event alone_total));
        ("fleet_ns_per_event", Obs.Json.Float (ns_per_event fleet_total));
        ("fleet_speedup", Obs.Json.Float speedup);
        ("identical_stats", Obs.Json.Bool true)
      ] )

(* Attribution overhead: the same recording through the same cache
   column plain, fully attributed, and 1-in-8 sampled.  Aggregate
   statistics must be bit-identical across all three (sampling only
   thins the attribution, never the simulation); the ratios are the
   price of per-event region/site/heat accounting on the fast path.
   The overhead_full bound is a ratio of two wall times, and one run of
   each is too noisy to hold it to: each side keeps its best of five.
   The three sides take turns round by round, each run on a fresh
   sweep, and the side that goes first rotates, so that a noisy
   stretch of the host does not land on one side only; each round's
   ratios are printed. *)
let measure_attribution () =
  let w = Workloads.Workload.nbody in
  let table = Memsim.Attr.create () in
  let r, recording = Core.Runner.record ~scale:1 ~attr:table w in
  let addr_limit =
    Vscheme.Mem.size_words (Vscheme.Machine.mem r.Core.Runner.machine)
    * Memsim.Trace.word_bytes
  in
  let events = Memsim.Recording.length recording in
  let configs =
    Memsim.Sweep.grid ~cache_sizes:Memsim.Sweep.paper_cache_sizes
      ~block_sizes:[ 32 ] ()
  in
  (* plain, attributed, sampled *)
  let sides =
    [| (fun sw -> Memsim.Sweep.hier_run_serial (Memsim.Sweep.hiers sw) recording);
       (fun sw ->
         ignore (Memsim.Sweep.run_attributed ~addr_limit sw table recording));
       (fun sw ->
         ignore
           (Memsim.Sweep.run_attributed ~sample_every:8 ~addr_limit sw table
              recording)) |]
  in
  (* One round: each side once on a fresh sweep, starting from side
     [k mod 3]; the times in side order, and whether the three sides'
     statistics agree. *)
  let round k =
    let times = Array.make 3 0. and results = Array.make 3 [] in
    for j = 0 to 2 do
      let side = (k + j) mod 3 in
      let sw = Memsim.Sweep.create configs in
      Gc.full_major ();
      let (), s = time (fun () -> sides.(side) sw) in
      times.(side) <- s;
      results.(side) <- Memsim.Sweep.results sw
    done;
    (times, results.(0) = results.(1) && results.(0) = results.(2))
  in
  let rounds = List.init 5 round in
  let best side =
    List.fold_left (fun acc (times, _) -> Float.min acc times.(side)) infinity
      rounds
  in
  let plain_s = best 0 and attr_s = best 1 and sampled_s = best 2 in
  let identical = List.for_all snd rounds in
  if not identical then
    failwith "attribution-overhead: statistics diverged from plain replay";
  let caches = List.length configs in
  let ratio_full = attr_s /. plain_s in
  let ratio_sampled = sampled_s /. plain_s in
  Format.fprintf ppf
    "@.==== attribution-overhead (%s, %d events, %d caches) ====@."
    w.Workloads.Workload.name events caches;
  Format.fprintf ppf
    "plain %.3fs   attributed %.3fs (%.2fx)   sampled 1-in-8 %.3fs (%.2fx)   \
     stats identical@.rounds (attributed, sampled):%s@."
    plain_s attr_s ratio_full sampled_s ratio_sampled
    (String.concat ""
       (List.map
          (fun (t, _) ->
            Printf.sprintf " %.2fx/%.2fx" (t.(1) /. t.(0)) (t.(2) /. t.(0)))
          rounds));
  ( "attribution-overhead",
    Obs.Json.Obj
      [ ("workload", Obs.Json.Str w.Workloads.Workload.name);
        ("events", Obs.Json.Int events);
        ("caches", Obs.Json.Int caches);
        ("sites", Obs.Json.Int (Memsim.Attr.num_sites table));
        ("epochs", Obs.Json.Int (Memsim.Attr.num_epochs table));
        ("plain_s", Obs.Json.Float plain_s);
        ("attributed_s", Obs.Json.Float attr_s);
        ("sampled_s", Obs.Json.Float sampled_s);
        ("sample_every", Obs.Json.Int 8);
        ("overhead_full", Obs.Json.Float ratio_full);
        ("overhead_sampled", Obs.Json.Float ratio_sampled);
        ("identical_stats", Obs.Json.Bool identical)
      ] )

(* On-disk formats: save/load one real trace in varint+delta v2 and
   mmap-native v3, verifying both round trip (the v3 load is the
   zero-copy mmap path, so its equality check is the mmap-vs-heap
   differential), and report sizes and wall times.  A v3 load is a
   few system calls, microseconds, so one timing of it is mostly
   noise: v3_load_us is the median of [v3_loads] loads of the saved
   file, each checked for its length. *)
let v3_loads = 101

let measure_recording_formats () =
  let w = Workloads.Workload.nbody in
  let _, recording = Core.Runner.record ~scale:1 w in
  let events = Memsim.Recording.length recording in
  (* [then_ path] runs on the saved file before it is removed. *)
  let measure format name then_ =
    let path = Filename.temp_file "repro-bench" (".trace-" ^ name) in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let (), save_s =
          time (fun () -> Memsim.Recording.save ~format recording path)
        in
        let bytes = (Unix.stat path).Unix.st_size in
        let loaded, load_s = time (fun () -> Memsim.Recording.load path) in
        if not (Memsim.Recording.equal recording loaded) then
          failwith ("recording-save-load: " ^ name ^ " round trip diverged");
        (bytes, save_s, load_s, then_ path))
  in
  let median_load_us path =
    let us =
      Array.init v3_loads (fun _ ->
          let t0 = Monotonic_clock.now () in
          let again = Memsim.Recording.load path in
          let dt = Int64.sub (Monotonic_clock.now ()) t0 in
          if Memsim.Recording.length again <> events then
            failwith "recording-save-load: a v3 load lost events";
          Int64.to_float dt *. 1e-3)
    in
    Array.sort Float.compare us;
    us.(v3_loads / 2)
  in
  let v2_bytes, v2_save_s, v2_load_s, () =
    measure Memsim.Recording.V2 "v2" ignore
  in
  let v3_bytes, v3_save_s, _, v3_load_us =
    measure Memsim.Recording.V3 "v3" median_load_us
  in
  let per_event b = float_of_int b /. float_of_int (max 1 events) in
  let ns_per_event s = s *. 1e9 /. float_of_int (max 1 events) in
  Format.fprintf ppf
    "@.==== recording-save-load (%s, %d events) ====@." w.Workloads.Workload.name
    events;
  Format.fprintf ppf
    "v2 %d bytes (%.2f b/event, save %.3fs, load %.3fs)   v3 %d bytes \
     (%.2f b/event, save %.3fs, mmap load %.1f us, median of %d)@.v2 codec: \
     save %.1f ns/event, load %.1f ns/event   v3 save %.1f ns/event@."
    v2_bytes (per_event v2_bytes) v2_save_s v2_load_s v3_bytes
    (per_event v3_bytes) v3_save_s v3_load_us v3_loads (ns_per_event v2_save_s)
    (ns_per_event v2_load_s) (ns_per_event v3_save_s);
  ( "recording-save-load",
    Obs.Json.Obj
      [ ("workload", Obs.Json.Str w.Workloads.Workload.name);
        ("events", Obs.Json.Int events);
        ("v2_bytes", Obs.Json.Int v2_bytes);
        ("v3_bytes", Obs.Json.Int v3_bytes);
        ("v2_bytes_per_event", Obs.Json.Float (per_event v2_bytes));
        ("v3_bytes_per_event", Obs.Json.Float (per_event v3_bytes));
        ("v2_save_s", Obs.Json.Float v2_save_s);
        ("v2_load_s", Obs.Json.Float v2_load_s);
        ("v2_save_ns_per_event", Obs.Json.Float (ns_per_event v2_save_s));
        ("v2_load_ns_per_event", Obs.Json.Float (ns_per_event v2_load_s));
        ("v3_save_s", Obs.Json.Float v3_save_s);
        ("v3_save_ns_per_event", Obs.Json.Float (ns_per_event v3_save_s));
        ("v3_load_us", Obs.Json.Float v3_load_us);
        ("v3_loads", Obs.Json.Int v3_loads)
      ] )

(* Fold the two trace-append estimates into one summary entry so
   BENCH_metrics.json records the fast-path speedup directly. *)
let trace_append_entry results =
  let find name = List.assoc_opt ("perf " ^ name) results in
  match (find "trace-append-sink-1k", find "trace-append-direct-1k") with
  | Some sink_ns, Some direct_ns ->
    let bigarray =
      match find "trace-append-bigarray-1k" with
      | Some ba_ns ->
        [ ("bigarray_ns_per_1k", Obs.Json.Float ba_ns);
          ("overhead_direct_vs_bigarray", Obs.Json.Float (direct_ns /. ba_ns))
        ]
      | None -> []
    in
    [ ( "trace-append",
        Obs.Json.Obj
          ([ ("sink_ns_per_1k", Obs.Json.Float sink_ns);
             ("direct_ns_per_1k", Obs.Json.Float direct_ns);
             ("speedup_direct_vs_sink", Obs.Json.Float (sink_ns /. direct_ns))
           ]
           @ bigarray) )
    ]
  | _ -> []

(* The serve daemon's scheduler, in-process: K distinct synthetic
   manifests are swept once each, then repeats up to [total]
   submissions are answered from the content-hash result cache.  The
   split is deterministic, so the run fails unless every job completes
   and exactly total - distinct of them are cache hits; throughput and
   latency quantiles are machine-dependent and bounded softly.  Every
   repeat is submitted after the sweeps drained, so each is a
   submit-time hit, and the median of their submit calls is
   hit_submit_p50_ms. *)
let measure_serve () =
  let distinct = 8 and total = 1000 in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "repro-serve-bench-%d" (Unix.getpid ()))
  in
  let rec rm_rf path =
    match Unix.lstat path with
    | exception Unix.Unix_error _ -> ()
    | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    | _ -> Unix.unlink path
  in
  rm_rf dir;
  let synthetic v =
    let base =
      match Golden.Manifest.default.Golden.Manifest.runs with
      | r :: _ -> r
      | [] -> assert false
    in
    let sizes = [| 16384; 32768; 65536; 131072; 262144; 524288 |] in
    let blocks = [| 16; 32; 64; 128 |] in
    (* v mod 6 x v/6 is injective below 24, so every v < distinct is a
       genuinely different grid and the hit count is exact. *)
    let run =
      { base with
        Golden.Manifest.name = Printf.sprintf "bench-%03d" v;
        cache_sizes = [ sizes.(v mod 6) ];
        block_sizes = [ blocks.(v / 6 mod 4) ];
        jobs = 1
      }
    in
    Sexp.Datum.to_string (Golden.Manifest.run_to_datum run)
  in
  let config = { Serve.Sched.default_config with Serve.Sched.workers = 4 } in
  let sched = Serve.Sched.create ~config dir in
  let submit v =
    match Serve.Sched.submit sched (synthetic v) with
    | Ok _ -> ()
    | Error msg -> failwith ("serve bench: submit failed: " ^ msg)
  in
  let (), sweep_s =
    time (fun () ->
        for v = 0 to distinct - 1 do
          submit v
        done;
        Serve.Sched.drain sched)
  in
  let hit_s = Array.make (total - distinct) 0. in
  let (), repeat_s =
    time (fun () ->
        for i = distinct to total - 1 do
          let (), s = time (fun () -> submit (i mod distinct)) in
          hit_s.(i - distinct) <- s
        done;
        Serve.Sched.drain sched)
  in
  Array.sort Float.compare hit_s;
  let hit_p50 = 1000. *. hit_s.(Array.length hit_s / 2) in
  let dt = sweep_s +. repeat_s in
  let counter = Serve.Sched.counter_value sched in
  let completed = counter "completed" in
  let cache_hits = counter "cache_hits" in
  let p50 = Serve.Sched.latency_quantile sched 0.50 in
  let p90 = Serve.Sched.latency_quantile sched 0.90 in
  let p99 = Serve.Sched.latency_quantile sched 0.99 in
  Serve.Sched.shutdown ~drain:true sched;
  rm_rf dir;
  if completed <> total || cache_hits <> total - distinct then
    failwith
      (Printf.sprintf
         "serve bench: %d of %d jobs completed with %d cache hits (want %d)"
         completed total cache_hits (total - distinct));
  let ratio = float_of_int cache_hits /. float_of_int total in
  Format.fprintf ppf
    "@.==== serve (%d submissions, %d distinct, %d workers) ====@." total
    distinct config.Serve.Sched.workers;
  Format.fprintf ppf
    "%.1f jobs/s   sweeps %.2fs   cache-hit ratio %.3f   latency p50 %.3fms \
     p90 %.3fms p99 %.3fms   hit submit p50 %.3fms@."
    (float_of_int total /. dt)
    sweep_s ratio p50 p90 p99 hit_p50;
  ( "serve",
    Obs.Json.Obj
      [ ("submissions", Obs.Json.Int total);
        ("distinct", Obs.Json.Int distinct);
        ("workers", Obs.Json.Int config.Serve.Sched.workers);
        ("completed", Obs.Json.Int completed);
        ("cache_hits", Obs.Json.Int cache_hits);
        ("cache_hit_ratio", Obs.Json.Float ratio);
        ("jobs_per_s", Obs.Json.Float (float_of_int total /. dt));
        ("sweep_s", Obs.Json.Float sweep_s);
        ("p50_latency_ms", Obs.Json.Float p50);
        ("p90_latency_ms", Obs.Json.Float p90);
        ("p99_latency_ms", Obs.Json.Float p99);
        ("hit_submit_p50_ms", Obs.Json.Float hit_p50)
      ] )

(* The bounds, as dotted paths into the metrics document.  Hard bounds
   are same-run ratios; soft ones are absolute and host-dependent. *)
type bound = At_least of float | At_most of float

let hard_bounds =
  [ ("hierarchy-sweep.hierarchy_speedup", At_least 2.0);
    ("hierarchy-fleet.fleet_speedup", At_least 2.0);
    ("sweep-serial-vs-parallel.speedup_chunk_vs_per_event", At_least 1.0);
    ("grid-pair.speedup_pair_vs_single", At_least 1.1);
    ("attribution-overhead.overhead_full", At_most 3.0);
    ("trace-append.speedup_direct_vs_sink", At_least 1.0)
  ]

let soft_bounds =
  [ ("benchmarks.perf cache-access-chunk-1k.ns_per_run", At_most 2e5);
    ("benchmarks.perf trace-append-bigarray-1k.ns_per_run", At_most 2e5);
    ("benchmarks.perf vscheme-fib-15.ns_per_run", At_most 1e8);
    ("recording-save-load.v2_load_ns_per_event", At_most 30.0);
    ("recording-save-load.v3_load_us", At_most 250.0);
    ("serve.jobs_per_s", At_least 2.0);
    ("serve.p99_latency_ms", At_most 60000.0);
    ("serve.hit_submit_p50_ms", At_most 1.0)
  ]

(* Print one line per bound and return whether every hard bound held.
   A missing metric violates its bound. *)
let check_bounds doc =
  let check ~hard (key, bound) =
    let actual =
      match
        List.fold_left
          (fun j seg -> Option.bind j (Obs.Json.member seg))
          (Some doc)
          (String.split_on_char '.' key)
      with
      | Some (Obs.Json.Float v) -> Some v
      | Some (Obs.Json.Int i) -> Some (float_of_int i)
      | Some _ | None -> None
    in
    let want, holds =
      match bound with
      | At_least lo -> (Printf.sprintf ">= %g" lo, fun v -> v >= lo)
      | At_most hi -> (Printf.sprintf "<= %g" hi, fun v -> v <= hi)
    in
    let held = Option.fold ~none:false ~some:holds actual in
    Format.fprintf ppf "%-4s %s %-54s %-10s actual %s@."
      (if held then "ok" else if hard then "FAIL" else "WARN")
      (if hard then "hard" else "soft")
      key want
      (Option.fold ~none:"absent" ~some:(Printf.sprintf "%g") actual);
    held
  in
  Format.fprintf ppf "@.==== bounds ====@.";
  let hard_held = List.map (check ~hard:true) hard_bounds in
  List.iter (fun b -> ignore (check ~hard:false b)) soft_bounds;
  List.for_all Fun.id hard_held

let write_bench_metrics json =
  (* Temp + rename so a crash mid-write never leaves a torn metrics
     file for the CI artifact upload to pick up. *)
  let tmp = "BENCH_metrics.json.tmp" in
  let oc = open_out tmp in
  output_string oc (Obs.Json.to_pretty_string json);
  output_char oc '\n';
  close_out oc;
  Sys.rename tmp "BENCH_metrics.json";
  Format.fprintf ppf "wrote BENCH_metrics.json@."

let () =
  Format.fprintf ppf "perf smoke: built with dune profile %s@."
    Build_profile.profile;
  let results = run_perf () in
  (* One pass after another, in print order (a list literal would
     evaluate right to left). *)
  let measured =
    List.map
      (fun measure -> measure ())
      [ measure_sweep; measure_grid_pair; measure_hierarchy; measure_fleet;
        measure_attribution; measure_recording_formats; measure_serve ]
  in
  let doc =
    Obs.Json.Obj
      (("build_profile", Obs.Json.Str Build_profile.profile)
       :: ("scale_factor", Obs.Json.Int (Core.Runner.scale_factor ()))
       :: ("benchmarks",
           Obs.Json.Obj
             (List.map
                (fun (name, est) ->
                  (name, Obs.Json.Obj [ ("ns_per_run", Obs.Json.Float est) ]))
                results))
       :: trace_append_entry results
       @ measured)
  in
  let hard_held = check_bounds doc in
  write_bench_metrics doc;
  Format.pp_print_flush ppf ();
  if not hard_held then begin
    prerr_endline "bench: a hard bound failed (see the FAIL lines above)";
    exit 1
  end
