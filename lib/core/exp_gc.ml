let block = 64

(* One grid of 64-byte-block caches across the paper's cache sizes. *)
let sweep_64b () =
  Memsim.Sweep.create
    (Memsim.Sweep.grid ~cache_sizes:Memsim.Sweep.paper_cache_sizes
       ~block_sizes:[ block ] ())

type measured = {
  insns : int;
  collector_insns : int;
  collections : int;
  bytes_allocated : int;
  per_size : (int * Memsim.Cache.stats) list; (* cache size -> stats *)
}

let measure ?gc ?scale w =
  let sweep = sweep_64b () in
  (* Record, then replay the completed recording into the grid.  No
     gauges: a workload is measured under several collectors, and one
     label per workload would keep only the last cell's numbers. *)
  let r, recording = Runner.record ?gc ?scale w in
  Memsim.Sweep.run_parallel ~jobs:(Runner.jobs ()) sweep recording;
  Memsim.Recording.release recording;
  { insns = r.Runner.stats.Vscheme.Machine.mutator_insns;
    collector_insns = r.Runner.stats.Vscheme.Machine.collector_insns;
    collections = r.Runner.stats.Vscheme.Machine.collections;
    bytes_allocated = r.Runner.stats.Vscheme.Machine.bytes_allocated;
    per_size =
      List.map
        (fun (cfg, stats) -> (cfg.Memsim.Level.size_bytes, stats))
        (Memsim.Sweep.results sweep)
  }

let gc_overhead cpu ~baseline ~collected ~size =
  let base = List.assoc size baseline.per_size in
  let run = List.assoc size collected.per_size in
  Memsim.Timing.gc_overhead cpu ~block_bytes:block
    ~collector_fetches:run.Memsim.Cache.collector_fetches
    ~program_fetch_delta:(run.Memsim.Cache.fetches - base.Memsim.Cache.fetches)
    ~collector_instructions:collected.collector_insns
    ~program_instruction_delta:(collected.insns - baseline.insns)
    ~program_instructions:baseline.insns

(* Pick a semispace that is comfortably larger than the live set but
   much smaller than total allocation, so the collector runs several
   times, as the paper's 16mb semispaces did against 34-357mb runs. *)
let semispace_for ~bytes_allocated =
  max (512 * 1024) (bytes_allocated / 8)

let figure_gc_overhead ppf =
  Report.heading ppf
    "E-F2 (sec. 6 figure): Cheney collector overhead (O_gc), 64b blocks";
  let subjects =
    [ Workloads.Workload.selfcomp; Workloads.Workload.nbody;
      Workloads.Workload.mexpr ]
  in
  List.iter
    (fun w ->
      let baseline = measure w in
      let semispace_bytes =
        semispace_for ~bytes_allocated:baseline.bytes_allocated
      in
      let collected =
        measure ~gc:(Vscheme.Machine.Cheney { semispace_bytes }) w
      in
      Format.fprintf ppf
        "@.%s: %s allocated, %s semispaces, %d collections@."
        w.Workloads.Workload.name
        (Report.mb baseline.bytes_allocated)
        (Report.mb semispace_bytes) collected.collections;
      let rows =
        List.map
          (fun size ->
            Report.size_label size
            :: List.map
                 (fun cpu ->
                   Report.pct (gc_overhead cpu ~baseline ~collected ~size))
                 Memsim.Timing.all_processors)
          Memsim.Sweep.paper_cache_sizes
      in
      Report.table ppf ~headers:[ "cache"; "O_gc slow"; "O_gc fast" ] ~rows)
    subjects;
  Format.fprintf ppf
    "@.paper shape: slow under 4%%, fast usually higher (up to ~8%%) but \
     acceptable; nbody can go@.negative in mid-size caches when the \
     collector happens to break up thrashing blocks.@."

let table_lp_pathology ppf =
  Report.heading ppf
    "E-T5 (sec. 6): the lp pathology - Cheney vs. generational on lred";
  let w = Workloads.Workload.lred in
  let scale = 4 * Runner.base_scale w * Runner.scale_factor () in
  let baseline = measure ~scale w in
  (* The trail keeps growing, so the semispace must stay ahead of the
     live set while remaining much smaller than total allocation. *)
  let semispace_bytes = max (1024 * 1024) (baseline.bytes_allocated / 4) in
  let cheney =
    measure ~scale ~gc:(Vscheme.Machine.Cheney { semispace_bytes }) w
  in
  let generational =
    measure ~scale
      ~gc:
        (Vscheme.Machine.Generational
           { nursery_bytes = semispace_bytes; old_bytes = 24 * 1024 * 1024 })
      w
  in
  Format.fprintf ppf
    "@.lred allocates %s with a trail that grows to the end of the run;@.\
     Cheney semispaces %s (%d collections), generational nursery of the \
     same size (%d collections).@."
    (Report.mb baseline.bytes_allocated)
    (Report.mb semispace_bytes) cheney.collections generational.collections;
  let rows =
    List.concat_map
      (fun size ->
        List.map
          (fun cpu ->
            [ Report.size_label size;
              Format.asprintf "%a" Memsim.Timing.pp_processor cpu;
              Report.pct (gc_overhead cpu ~baseline ~collected:cheney ~size);
              Report.pct
                (gc_overhead cpu ~baseline ~collected:generational ~size)
            ])
          Memsim.Timing.all_processors)
      [ Memsim.Sweep.kb 64; Memsim.Sweep.kb 256; Memsim.Sweep.mb 1 ]
  in
  Report.table ppf
    ~headers:[ "cache"; "cpu"; "O_gc cheney"; "O_gc generational" ]
    ~rows;
  Format.fprintf ppf
    "@.paper: lp's Cheney overheads are uniformly 40%% or higher because \
     each collection recopies the@.growing structure; a simple \
     generational collector avoids exactly that work.@."

let table_aggressive ppf =
  Report.heading ppf
    "E-T6 (sec. 6): aggressive collection cannot pay for itself (selfcomp)";
  let w = Workloads.Workload.selfcomp in
  let baseline = measure w in
  let old_bytes = 24 * 1024 * 1024 in
  let nurseries =
    [ 16 * 1024; 32 * 1024; 64 * 1024; 256 * 1024; 1024 * 1024;
      4 * 1024 * 1024 ]
  in
  let rows =
    List.map
      (fun nursery_bytes ->
        let collected =
          measure
            ~gc:(Vscheme.Machine.Generational { nursery_bytes; old_bytes })
            w
        in
        [ Report.size_label nursery_bytes;
          string_of_int collected.collections;
          Report.eng collected.collector_insns;
          Report.pct
            (gc_overhead Memsim.Timing.Fast ~baseline ~collected
               ~size:(Memsim.Sweep.kb 64));
          Report.pct
            (gc_overhead Memsim.Timing.Fast ~baseline ~collected
               ~size:(Memsim.Sweep.mb 1))
        ])
      nurseries
  in
  Report.table ppf
    ~headers:
      [ "nursery"; "collections"; "I_gc";
        "O_gc fast @64k"; "O_gc fast @1m" ]
    ~rows;
  let base64 = List.assoc (Memsim.Sweep.kb 64) baseline.per_size in
  let floor64 =
    Memsim.Timing.cache_overhead Memsim.Timing.Fast ~block_bytes:block
      ~fetches:base64.Memsim.Cache.fetches ~instructions:baseline.insns
  in
  Format.fprintf ppf
    "@.the program's whole cache overhead without GC (fast, 64k) is %s - \
     the most an aggressive@.collector could possibly recover; the rows \
     above show what shrinking the nursery actually costs.@."
    (Report.pct floor64)
