(* Compare collectors on one workload: the §6 experiment in miniature.
   Runs the compiler workload with no GC (baseline), a Cheney semispace
   collector, an infrequent generational collector, and an "aggressive"
   cache-sized-nursery generational collector, and prints O_gc for
   each.

   Run with:  dune exec examples/gc_comparison.exe [workload] *)

let block_bytes = 64
let cache_bytes = 64 * 1024

(* Record one run, replay it into the cache, release the recording. *)
let measure gc w =
  let sweep =
    Memsim.Sweep.create
      [ Memsim.Level.config ~size_bytes:cache_bytes ~block_bytes ~ways:1 () ]
  in
  let r, recording = Core.Runner.record ~gc w in
  Memsim.Sweep.run_serial sweep recording;
  Memsim.Recording.release recording;
  (r, snd (List.hd (Memsim.Sweep.results sweep)))

let () =
  let w =
    match Sys.argv with
    | [| _; name |] -> (
      match Workloads.Workload.find name with
      | Some w -> w
      | None ->
        prerr_endline ("unknown workload " ^ name);
        exit 1)
    | _ -> Workloads.Workload.selfcomp
  in
  Printf.printf "workload: %s (%s)\n\n" w.Workloads.Workload.name
    w.Workloads.Workload.paper_analogue;
  let baseline, base_stats = measure Vscheme.Machine.No_gc w in
  let base_insns = baseline.Core.Runner.stats.Vscheme.Machine.mutator_insns in
  Printf.printf "baseline (no GC): %d instructions, %s allocated, result %s\n\n"
    base_insns
    (Core.Report.mb baseline.Core.Runner.stats.Vscheme.Machine.bytes_allocated)
    baseline.Core.Runner.value;
  let alloc = baseline.Core.Runner.stats.Vscheme.Machine.bytes_allocated in
  let configs =
    [ ( "cheney (infrequent)",
        Vscheme.Machine.Cheney { semispace_bytes = max (512 * 1024) (alloc / 8) } );
      ( "generational (infrequent)",
        Vscheme.Machine.Generational
          { nursery_bytes = max (512 * 1024) (alloc / 8);
            old_bytes = 16 * 1024 * 1024
          } );
      ( "generational (aggressive)",
        Vscheme.Machine.Generational
          { nursery_bytes = 32 * 1024; old_bytes = 16 * 1024 * 1024 } )
    ]
  in
  Core.Report.table Format.std_formatter
    ~headers:
      [ "collector"; "collections"; "I_gc"; "O_gc slow @64k"; "O_gc fast @64k" ]
    ~rows:
      (List.map
         (fun (name, gc) ->
           let r, stats = measure gc w in
           if not (String.equal r.Core.Runner.value baseline.Core.Runner.value)
           then failwith "collector changed the program's result!";
           let o cpu =
             Memsim.Timing.gc_overhead cpu ~block_bytes
               ~collector_fetches:stats.Memsim.Cache.collector_fetches
               ~program_fetch_delta:
                 (stats.Memsim.Cache.fetches - base_stats.Memsim.Cache.fetches)
               ~collector_instructions:
                 r.Core.Runner.stats.Vscheme.Machine.collector_insns
               ~program_instruction_delta:
                 (r.Core.Runner.stats.Vscheme.Machine.mutator_insns - base_insns)
               ~program_instructions:base_insns
           in
           [ name;
             string_of_int r.Core.Runner.stats.Vscheme.Machine.collections;
             Core.Report.eng r.Core.Runner.stats.Vscheme.Machine.collector_insns;
             Core.Report.pct (o Memsim.Timing.Slow);
             Core.Report.pct (o Memsim.Timing.Fast)
           ])
         configs);
  print_newline ();
  print_endline
    "The paper's claim: an infrequently-run generational collector keeps O_gc";
  print_endline
    "small; shrinking the nursery to cache size multiplies collections without";
  print_endline "buying enough cache improvement to pay for itself (sec. 6)."
