(* The perf smoke: Bechamel microbenchmarks of the simulator's own hot
   paths plus same-run comparisons of its engines (host performance,
   not simulated time; the paper's tables come from `repro run`).

   Before writing BENCH_metrics.json the bench holds its numbers to
   [hard_bounds] and [soft_bounds].  Same-run ratios do not depend on
   the host, so a violated one fails the run (exit 1); absolute
   timings and throughputs only print a WARN line.  Every engine
   comparison runs through [compare_sides], which also asserts that
   the engines' statistics are bit-identical, and the serve pass
   asserts that its hit count is exact. *)

let ppf = Format.std_formatter

(* [f ()] and its wall time in seconds, on the monotonic clock. *)
let time f =
  let t0 = Monotonic_clock.now () in
  let r = f () in
  (r, Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9)

(* The upper median: the middle element of an odd count. *)
let median xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

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
   fast path (record_into).  The recording is drained every 1024
   batches so the loop measures append cost, not allocation of an
   ever-growing slab list. *)
let trace_append_bench name mem reset =
  let t = ref 0 and batches = ref 0 in
  Bechamel.Test.make ~name
    (Bechamel.Staged.stage (fun () ->
         for i = 0 to 999 do
           ignore (Vscheme.Mem.read mem ((!t + (i * 7)) land 0xffff))
         done;
         t := !t + 4096;
         incr batches;
         if !batches >= 1024 then begin
           batches := 0;
           reset ()
         end))

let trace_append_sink_bench =
  let recording = Memsim.Recording.create () in
  trace_append_bench "trace-append-sink-1k"
    (Vscheme.Mem.create ~sink:(Memsim.Recording.sink recording) ~words:65536)
    (fun () -> Memsim.Recording.clear recording)

let trace_append_direct_bench =
  let recording = Memsim.Recording.create () in
  let mem = Vscheme.Mem.create ~sink:Memsim.Trace.null ~words:65536 in
  Vscheme.Mem.record_into mem recording;
  trace_append_bench "trace-append-direct-1k" mem (fun () ->
      Vscheme.Mem.sync_recording mem;
      Memsim.Recording.clear recording;
      Vscheme.Mem.record_into mem recording)

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
let obs_counter_bench state =
  let enabled = state = "enabled" in
  let c = Obs.Metrics.counter (Obs.Metrics.create ~enabled ()) "bench.count" in
  Bechamel.Test.make ~name:("obs-counter-" ^ state ^ "-1k")
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
        obs_counter_bench "disabled"; obs_counter_bench "enabled" ]
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

(* --- Same-run engine comparisons -------------------------------------- *)

(* Every engine comparison is one [compare_sides] of sides that run the
   same simulation through different engines, side 0 the reference.
   Each of [rounds] rounds runs every side once, and the side that goes first
   rotates from round to round, so that neither a noisy stretch of the
   host nor the cost of following another side lands on one side only.
   Before each timed pass a side makes fresh state and settles the GC,
   so no inherited collection debt lands inside the window; a sample
   repeats passes until it has run [min_sample_s], because a pass of a
   few milliseconds alone is mostly scheduler noise.  The run fails
   unless every side ends each round in the same state as side 0.  A
   hard bound reads [ratio], the median of a side's per-round ratios
   against side 0, which no single lucky sample on either side decides,
   as one decides a ratio of best times. *)
let rounds = 5
let min_sample_s = 0.05

type 's side = { label : string; make : unit -> 's; drive : 's -> unit }

(* Seconds per pass, and the last pass's state. *)
let sample { make; drive; _ } =
  let rec go passes spent =
    let state = make () in
    Gc.full_major ();
    let (), s = time (fun () -> drive state) in
    let spent = spent +. s in
    if spent >= min_sample_s then (spent /. float_of_int passes, state)
    else go (passes + 1) spent
  in
  go 1 0.

let best times i =
  Array.fold_left (fun acc t -> Float.min acc t.(i)) infinity times

let ratios times i = Array.map (fun t -> t.(i) /. t.(0)) times
let ratio times i = median (ratios times i)

(* Runs the rounds and prints each side's best seconds per pass and,
   for the other sides, the round ratios against side 0 and their
   median.  Returns [times], where [times.(k).(i)] is side [i]'s seconds
   per pass in round [k], and each side's best as a [<label>_s] field. *)
let compare_sides name ~same sides =
  let n = Array.length sides in
  let times =
    Array.init rounds (fun k ->
        let samples =
          List.init n (fun j ->
              let i = (k + j) mod n in
              (i, sample sides.(i)))
        in
        let state i = snd (List.assoc i samples) in
        for i = 1 to n - 1 do
          if not (same (state 0) (state i)) then
            failwith
              (Printf.sprintf "%s: %s's statistics diverged from %s's" name
                 sides.(i).label sides.(0).label)
        done;
        Array.init n (fun i -> fst (List.assoc i samples)))
  in
  Array.iteri
    (fun i { label; _ } ->
      Format.fprintf ppf "  %-10s %.4fs per pass" label (best times i);
      if i > 0 then begin
        Format.fprintf ppf "   rounds:";
        Array.iter (Format.fprintf ppf " %.2fx") (ratios times i);
        Format.fprintf ppf "   median %.2fx" (ratio times i)
      end;
      Format.fprintf ppf "@.")
    sides;
  ( times,
    Array.to_list
      (Array.mapi
         (fun i { label; _ } -> (label ^ "_s", Obs.Json.Float (best times i)))
         sides) )

(* [f] on [w]'s scale-1 run and trace; the trace's slabs go back to the
   pool however [f] ends. *)
let with_recording ?attr w f =
  let r, recording = Core.Runner.record ~scale:1 ?attr w in
  Fun.protect
    ~finally:(fun () -> Memsim.Recording.release recording)
    (fun () -> f r recording)

(* [f] on every workload's scale-1 trace, in [Workload.all] order. *)
let with_recordings f =
  let rec go acc = function
    | [] -> f (List.rev acc)
    | w :: ws -> with_recording w (fun _ r -> go ((w, r) :: acc) ws)
  in
  go [] Workloads.Workload.all

let same_results a b = Memsim.Sweep.results a = Memsim.Sweep.results b

(* One recorded trace, the full 40-configuration paper grid, three
   delivery mechanisms: chunked serial (the reference), per event
   through the sweep's sink, and domain-parallel. *)
let measure_sweep () =
  let w = Workloads.Workload.nbody in
  with_recording w @@ fun _ recording ->
  let make () =
    Memsim.Sweep.create
      (Memsim.Sweep.grid ~cache_sizes:Memsim.Sweep.paper_cache_sizes
         ~block_sizes:Memsim.Sweep.paper_block_sizes ())
  in
  let events = Memsim.Recording.length recording
  and caches = Array.length (Memsim.Sweep.hiers (make ())) in
  let jobs =
    if Core.Runner.jobs () > 1 then Core.Runner.jobs ()
    else Domain.recommended_domain_count ()
  in
  Format.fprintf ppf
    "@.==== sweep-serial-vs-parallel (%s, %d events, %d caches, parallel \
     --jobs %d) ====@."
    w.name events caches jobs;
  let times, seconds =
    compare_sides "sweep-serial-vs-parallel" ~same:same_results
      [| { label = "serial";
           make;
           drive =
             (fun sw ->
               Memsim.Sweep.hier_run_serial (Memsim.Sweep.hiers sw) recording)
         };
         { label = "per_event";
           make;
           drive =
             (fun sw ->
               Memsim.Recording.replay recording (Memsim.Sweep.sink sw)) };
         { label = "parallel";
           make;
           drive =
             (fun sw ->
               Memsim.Sweep.hier_run_parallel ~jobs (Memsim.Sweep.hiers sw)
                 recording) } |]
  in
  ( "sweep-serial-vs-parallel",
    Obs.Json.Obj
      ([ ("workload", Obs.Json.Str w.name);
         ("events", Obs.Json.Int events);
         ("caches", Obs.Json.Int caches);
         ("jobs", Obs.Json.Int jobs);
         ("host_domains", Obs.Json.Int (Domain.recommended_domain_count ()));
         ("speedup_chunk_vs_per_event", Obs.Json.Float (ratio times 1));
         ("speedup_parallel_vs_serial", Obs.Json.Float (1. /. ratio times 2))
       ]
      @ seconds) )

(* Two direct-mapped cells replayed together ([Level.access_chunk2]:
   each event read once, both cells stepped on it) against the same
   two cells replayed one pass each ([Level.access_chunk] twice), on
   every workload's trace.  The cells are the golden grid's corners.
   speedup_pair_vs_single is the smallest per-workload median. *)
let measure_grid_pair recordings =
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
      (fun ((w : Workloads.Workload.t), recording) ->
        let events = Memsim.Recording.length recording in
        Format.fprintf ppf "%s, %d events:@." w.name events;
        let times, seconds =
          compare_sides ("grid-pair " ^ w.name)
            ~same:(Array.for_all2 Memsim.Level.same)
            [| { label = "pair";
                 make;
                 drive =
                   (fun ls ->
                     Memsim.Recording.iter_chunks recording (fun buf len ->
                         Memsim.Level.access_chunk2 ls.(0) ls.(1) buf 0 len))
               };
               { label = "single";
                 make;
                 drive =
                   Array.iter (fun l ->
                       Memsim.Recording.iter_chunks recording (fun buf len ->
                           Memsim.Level.access_chunk l buf 0 len)) } |]
        in
        let speedup = ratio times 1 in
        ( speedup,
          ( w.name,
            Obs.Json.Obj
              (("events", Obs.Json.Int events)
               :: ("speedup", Obs.Json.Float speedup)
               :: seconds) ) ))
      recordings
  in
  let speedup =
    List.fold_left (fun acc (s, _) -> Float.min acc s) infinity rows
  in
  Format.fprintf ppf "pair speedup (worst workload median): %.2fx@." speedup;
  ( "grid-pair",
    Obs.Json.Obj
      [ ("workloads", Obs.Json.Obj (List.map snd rows));
        ("speedup_pair_vs_single", Obs.Json.Float speedup)
      ] )

(* Two engines over every workload's trace, the fast one side 0.  A
   side's state is one [make ()] per workload and a pass replays each
   workload's trace into its own state, so a round's ratio is the slow
   side's time summed across the workloads over the fast side's;
   [ratio_key] is their median. *)
let measure_all_workloads recordings ~name ~title ~same ~ratio_key fields
    fast slow =
  let events =
    List.fold_left (fun acc (_, r) -> acc + Memsim.Recording.length r) 0
      recordings
  in
  Format.fprintf ppf "@.==== %s (%s, all workloads, %d events) ====@." name
    title events;
  let side (label, make, drive) =
    { label;
      make = (fun () -> List.map (fun _ -> make ()) recordings);
      drive = List.iter2 (fun (_, recording) -> drive recording) recordings }
  in
  let times, seconds =
    compare_sides name ~same:(List.for_all2 same)
      [| side fast; side slow |]
  in
  ( name,
    Obs.Json.Obj
      (fields
      @ [ ("events", Obs.Json.Int events);
          (ratio_key, Obs.Json.Float (ratio times 1)) ]
      @ seconds) )

(* Fused miss-stream hierarchy vs the hooked per-event oracle: every
   workload through the 3-level Coffee Lake preset. *)
let measure_hierarchy recordings =
  let cfg = Memsim.Hier.preset Memsim.Hier.Cfl in
  measure_all_workloads recordings ~name:"hierarchy-sweep"
    ~title:"cfl 3-level, hooked vs fused" ~ratio_key:"hierarchy_speedup"
    ~same:(fun a b -> Memsim.Hier.stats a = Memsim.Hier.stats b)
    [ ("cpu", Obs.Json.Str "cfl"); ("levels", Obs.Json.Int 3) ]
    ( "fused",
      (fun () -> Memsim.Hier.create cfg),
      fun recording h ->
        Memsim.Recording.iter_chunks recording (fun buf len ->
            Memsim.Hier.access_chunk h buf 0 len) )
    ( "hooked",
      (fun () -> Memsim.Hier.create ~fused:false cfg),
      fun recording h -> Memsim.Recording.replay recording (Memsim.Hier.sink h)
    )

(* The five CPU presets share one L1 and two L2s.  A fleet replay
   simulates each shared prefix once (7 level simulations instead of
   15); replaying each preset alone through its own one-hierarchy
   [hier_run_serial] is its oracle. *)
let measure_fleet recordings =
  let make () =
    Array.of_list
      (List.map
         (fun cpu -> Memsim.Hier.create (Memsim.Hier.preset cpu))
         Memsim.Hier.all_cpus)
  in
  measure_all_workloads recordings ~name:"hierarchy-fleet"
    ~title:"five presets, one fleet vs each alone" ~ratio_key:"fleet_speedup"
    ~same:(fun a b ->
      Array.map Memsim.Hier.stats a = Array.map Memsim.Hier.stats b)
    [ ("cpus",
       Obs.Json.List
         (List.map
            (fun c -> Obs.Json.Str (Memsim.Hier.cpu_label c))
            Memsim.Hier.all_cpus)) ]
    ( "fleet",
      make,
      fun recording hs -> Memsim.Sweep.hier_run_serial hs recording )
    ( "alone",
      make,
      fun recording ->
        Array.iter (fun h -> Memsim.Sweep.hier_run_serial [| h |] recording) )

(* Attribution overhead: the same recording through the one cache
   `repro profile` simulates in CI (64k, 32-byte blocks) plain (the
   reference, [Level.access_chunk]), fully attributed, and 1-in-8
   sampled.  Line state and aggregate statistics must be bit-identical
   across all three (sampling only thins the attribution, never the
   simulation); the ratios are the price of per-event
   region/site/heat accounting on the fast path. *)
let measure_attribution () =
  let w = Workloads.Workload.nbody in
  let table = Memsim.Attr.create () in
  with_recording ~attr:table w @@ fun r recording ->
  let addr_limit =
    Vscheme.Mem.size_words (Vscheme.Machine.mem r.Core.Runner.machine)
    * Memsim.Trace.word_bytes
  in
  let events = Memsim.Recording.length recording in
  let cache =
    Memsim.Level.config ~size_bytes:(Memsim.Sweep.kb 64) ~block_bytes:32
      ~ways:1 ()
  in
  let make () = Memsim.Level.create cache in
  let attributed label sample_every =
    { label;
      make;
      drive =
        (fun l ->
          ignore
            (Memsim.Sweep.run_attributed ~sample_every ~addr_limit l table
               recording)) }
  in
  Format.fprintf ppf
    "@.==== attribution-overhead (%s, %d events, one 64k/32b cache, \
     sampled 1-in-8) ====@."
    w.name events;
  let times, seconds =
    compare_sides "attribution-overhead" ~same:Memsim.Level.same
      [| { label = "plain";
           make;
           drive =
             (fun l ->
               Memsim.Recording.iter_chunks recording (fun buf len ->
                   Memsim.Level.access_chunk l buf 0 len)) };
         attributed "attributed" 1;
         attributed "sampled" 8 |]
  in
  ( "attribution-overhead",
    Obs.Json.Obj
      ([ ("workload", Obs.Json.Str w.name);
         ("events", Obs.Json.Int events);
         ("sites", Obs.Json.Int (Memsim.Attr.num_sites table));
         ("epochs", Obs.Json.Int (Memsim.Attr.num_epochs table));
         ("sample_every", Obs.Json.Int 8);
         ("overhead_full", Obs.Json.Float (ratio times 1));
         ("overhead_sampled", Obs.Json.Float (ratio times 2))
       ]
      @ seconds) )

(* On-disk formats: save/load one real trace in varint+delta v2 and
   mmap-native v3, verifying both round trip (the v3 load is the
   zero-copy mmap path, so its equality check is the mmap-vs-heap
   differential), and report sizes and wall times.  A v3 load is a
   few system calls, microseconds, so one timing of it is mostly
   noise: v3_load_us is the median of [v3_loads] loads of the saved
   file, each checked for its length.  v2_count_ns_per_event times
   [saved_bytes ~format:V2], the size count a serve job runs for each
   fresh fixture, as the median of [v2_counts] counts, each checked
   against the saved file's size. *)
let v3_loads = 101
let v2_counts = 7

let measure_recording_formats () =
  let w = Workloads.Workload.nbody in
  with_recording w @@ fun _ recording ->
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
        let equal = Memsim.Recording.equal recording loaded in
        Memsim.Recording.release loaded;
        if not equal then
          failwith ("recording-save-load: " ^ name ^ " round trip diverged");
        (bytes, save_s, load_s, then_ path))
  in
  let median_load_us path =
    median
      (Array.init v3_loads (fun _ ->
           let again, s = time (fun () -> Memsim.Recording.load path) in
           let n = Memsim.Recording.length again in
           Memsim.Recording.release again;
           if n <> events then
             failwith "recording-save-load: a v3 load lost events";
           s *. 1e6))
  in
  let v2_bytes, v2_save_s, v2_load_s, () =
    measure Memsim.Recording.V2 "v2" ignore
  in
  let v2_count_s =
    median
      (Array.init v2_counts (fun _ ->
           let n, dt =
             time (fun () -> Memsim.Recording.saved_bytes recording)
           in
           if n <> v2_bytes then
             failwith "recording-save-load: the v2 count differs from the file";
           dt))
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
     save %.1f ns/event, load %.1f ns/event, count %.1f ns/event   v3 save \
     %.1f ns/event@."
    v2_bytes (per_event v2_bytes) v2_save_s v2_load_s v3_bytes
    (per_event v3_bytes) v3_save_s v3_load_us v3_loads (ns_per_event v2_save_s)
    (ns_per_event v2_load_s) (ns_per_event v2_count_s) (ns_per_event v3_save_s);
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
        ("v2_count_ns_per_event", Obs.Json.Float (ns_per_event v2_count_s));
        ("v2_counts", Obs.Json.Int v2_counts);
        ("v3_save_s", Obs.Json.Float v3_save_s);
        ("v3_save_ns_per_event", Obs.Json.Float (ns_per_event v3_save_s));
        ("v3_load_us", Obs.Json.Float v3_load_us);
        ("v3_loads", Obs.Json.Int v3_loads)
      ] )

(* Start-up: what every trace costs before its workload runs.  One
   boot is [Machine.create] (heap, primitives, the prelude read,
   expanded, compiled and run) and [Workload.load] (the program's
   definitions) for each of the ten cells of perfbench's
   trace-pipeline: every workload under its Cheney semispace and under
   the generational collector.  Nothing is kept from one boot to the
   next, so each one reads and compiles from source.  boot_us is the
   median of [boots] boots of all ten cells. *)
let boots = 25

let startup_cells =
  List.concat_map
    (fun (w : Workloads.Workload.t) ->
      let semispace_bytes =
        match w.name with
        | "selfcomp" | "prover" -> 48 * 1024
        | "lred" -> 256 * 1024
        | _ -> 64 * 1024
      in
      [ (w, Vscheme.Machine.Cheney { semispace_bytes });
        ( w,
          Vscheme.Machine.Generational
            { nursery_bytes = 64 * 1024; old_bytes = 24 * 1024 * 1024 } ) ])
    Workloads.Workload.all

let measure_startup () =
  let boot () =
    List.iter
      (fun ((w : Workloads.Workload.t), gc) ->
        let m =
          Vscheme.Machine.create
            { Vscheme.Machine.default_config with
              gc; heap_bytes = 48 * 1024 * 1024 }
        in
        Workloads.Workload.load m w)
      startup_cells
  in
  boot ();
  let boot_us =
    median (Array.init boots (fun _ -> snd (time boot) *. 1e6))
  in
  Format.fprintf ppf "@.==== startup (%d cells, median of %d boots) ====@."
    (List.length startup_cells) boots;
  Format.fprintf ppf "boot %.0f us for the cells, %.0f us a cell@." boot_us
    (boot_us /. float_of_int (List.length startup_cells));
  ( "startup",
    Obs.Json.Obj
      [ ("cells", Obs.Json.Int (List.length startup_cells));
        ("boots", Obs.Json.Int boots);
        ("boot_us", Obs.Json.Float boot_us)
      ] )

(* The reader alone: Sexp.Parser.parse_all over the prelude, the
   median of [reads] reads, per byte of source. *)
let reads = 201

let measure_reader () =
  let src = Vscheme.Prelude.source in
  let bytes = String.length src in
  let data = Sexp.Parser.parse_all src in
  let read_s =
    median
      (Array.init reads (fun _ ->
           let d, s = time (fun () -> Sexp.Parser.parse_all src) in
           if List.length d <> List.length data then
             failwith "sexp: a read of the prelude lost data";
           s))
  in
  let ns_per_byte = read_s *. 1e9 /. float_of_int bytes in
  Format.fprintf ppf "@.==== sexp (the prelude, %d bytes, %d data) ====@."
    bytes (List.length data);
  Format.fprintf ppf "read %.1f us, %.1f ns/byte (median of %d)@."
    (read_s *. 1e6) ns_per_byte reads;
  ( "sexp",
    Obs.Json.Obj
      [ ("bytes", Obs.Json.Int bytes);
        ("reads", Obs.Json.Int reads);
        ("read_ns_per_byte", Obs.Json.Float ns_per_byte)
      ] )

(* Fold the two trace-append estimates into one summary entry so
   BENCH_metrics.json records the fast-path speedup directly. *)
let trace_append_entry results =
  let find name = List.assoc_opt ("perf " ^ name) results in
  match (find "trace-append-sink-1k", find "trace-append-direct-1k") with
  | Some sink_ns, Some direct_ns ->
    let bigarray ba_ns =
      [ ("bigarray_ns_per_1k", Obs.Json.Float ba_ns);
        ("overhead_direct_vs_bigarray", Obs.Json.Float (direct_ns /. ba_ns)) ]
    in
    [ ( "trace-append",
        Obs.Json.Obj
          ([ ("sink_ns_per_1k", Obs.Json.Float sink_ns);
             ("direct_ns_per_1k", Obs.Json.Float direct_ns);
             ("speedup_direct_vs_sink", Obs.Json.Float (sink_ns /. direct_ns))
           ]
          @ Option.fold ~none:[] ~some:bigarray
              (find "trace-append-bigarray-1k")) ) ]
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
  let dir = Filename.temp_dir "repro-serve-bench" "" in
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
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
  let hit_p50 = 1000. *. median hit_s in
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
    ("sweep-serial-vs-parallel.speedup_chunk_vs_per_event", At_least 3.0);
    ("grid-pair.speedup_pair_vs_single", At_least 1.1);
    ("attribution-overhead.overhead_full", At_most 3.0);
    ("trace-append.speedup_direct_vs_sink", At_least 1.0)
  ]

let soft_bounds =
  [ ("benchmarks.perf cache-access-chunk-1k.ns_per_run", At_most 2e5);
    ("benchmarks.perf trace-append-bigarray-1k.ns_per_run", At_most 2e5);
    ("benchmarks.perf vscheme-fib-15.ns_per_run", At_most 1e8);
    ("recording-save-load.v2_load_ns_per_event", At_most 30.0);
    ("recording-save-load.v2_count_ns_per_event", At_most 15.0);
    ("recording-save-load.v3_load_us", At_most 250.0);
    ("serve.jobs_per_s", At_least 2.0);
    ("serve.p99_latency_ms", At_most 60000.0);
    ("serve.hit_submit_p50_ms", At_most 1.0);
    ("startup.boot_us", At_most 12000.0);
    ("sexp.read_ns_per_byte", At_most 25.0)
  ]

(* Print one line per bound and return whether every hard bound held.
   A missing metric violates its bound. *)
let check_bounds doc =
  let check ~hard (key, bound) =
    let actual =
      Option.bind
        (List.fold_left
           (fun j seg -> Option.bind j (Obs.Json.member seg))
           (Some doc)
           (String.split_on_char '.' key))
        Obs.Json.to_float
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

let () =
  Format.fprintf ppf "perf smoke: built with dune profile %s@."
    Build_profile.profile;
  let results = run_perf () in
  (* One pass after another, in print order (a list literal would
     evaluate right to left). *)
  let sweep = measure_sweep () in
  let engines =
    with_recordings (fun recordings ->
        List.map
          (fun measure -> measure recordings)
          [ measure_grid_pair; measure_hierarchy; measure_fleet ])
  in
  let rest =
    List.map
      (fun measure -> measure ())
      [ measure_attribution; measure_recording_formats; measure_startup;
        measure_reader; measure_serve ]
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
       @ (sweep :: engines) @ rest)
  in
  let hard_held = check_bounds doc in
  (* Replaced atomically so a crash mid-write never leaves a torn
     metrics file for the CI artifact upload to pick up. *)
  Obs.Atomic_file.write "BENCH_metrics.json" (fun oc ->
      output_string oc (Obs.Json.to_pretty_string doc);
      output_char oc '\n');
  Format.fprintf ppf "wrote BENCH_metrics.json@.";
  Format.pp_print_flush ppf ();
  if not hard_held then begin
    prerr_endline "bench: a hard bound failed (see the FAIL lines above)";
    exit 1
  end
