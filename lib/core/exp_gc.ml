let block = 64

let caches sizes =
  List.map
    (fun c -> Memsim.Hier.config ~levels:[ c ] ())
    (Memsim.Sweep.grid ~cache_sizes:sizes ~block_sizes:[ block ] ())

type replayed = {
  geometry : Memsim.Hier.config;
  levels : Memsim.Cache.stats array;
}

type measured = {
  value : string;
  insns : int;
  collector_insns : int;
  collections : int;
  bytes_allocated : int;
  hiers : replayed array;
}

(* No gauges: a workload is measured under several collectors, and one
   label per workload would keep only the last cell's numbers. *)
let measure ~jobs ?gc ?scale w configs =
  let hiers = Array.of_list (List.map Memsim.Hier.create configs) in
  let r =
    Runner.with_lease ?gc ?scale w (fun r recording ->
        Memsim.Sweep.hier_run_parallel ~jobs hiers recording;
        r)
  in
  let s = r.Runner.stats in
  { value = r.Runner.value;
    insns = s.Vscheme.Machine.mutator_insns;
    collector_insns = s.Vscheme.Machine.collector_insns;
    collections = s.Vscheme.Machine.collections;
    bytes_allocated = s.Vscheme.Machine.bytes_allocated;
    hiers =
      Array.map
        (fun h ->
          { geometry = Memsim.Hier.geometry h; levels = Memsim.Hier.stats h })
        hiers
  }

let o_gc cpu ~baseline ~collected i =
  if baseline.insns <= 0 then invalid_arg "Exp_gc.o_gc";
  let cycles m ~collector =
    let h = m.hiers.(i) in
    Memsim.Hier.stall_cycles h.geometry h.levels cpu ~collector
  in
  let stall =
    cycles collected ~collector:true
    +. cycles collected ~collector:false
    -. cycles baseline ~collector:false
  in
  let work =
    float_of_int (collected.collector_insns + collected.insns - baseline.insns)
  in
  (stall +. work) /. float_of_int baseline.insns

let semispace_for ~bytes_allocated =
  max (512 * 1024) (bytes_allocated / 8)

let figure_gc_overhead ppf =
  Report.heading ppf
    "E-F2 (sec. 6 figure): Cheney collector overhead (O_gc), 64b blocks";
  let subjects =
    [ Workloads.Workload.selfcomp; Workloads.Workload.nbody;
      Workloads.Workload.mexpr ]
  in
  let jobs = Runner.jobs () in
  let sizes = Memsim.Sweep.paper_cache_sizes in
  List.iter
    (fun w ->
      let baseline = measure ~jobs w (caches sizes) in
      let semispace_bytes =
        semispace_for ~bytes_allocated:baseline.bytes_allocated
      in
      let collected =
        measure ~jobs ~gc:(Vscheme.Machine.Cheney { semispace_bytes }) w
          (caches sizes)
      in
      Format.fprintf ppf
        "@.%s: %s allocated, %s semispaces, %d collections@."
        w.Workloads.Workload.name
        (Report.mb baseline.bytes_allocated)
        (Report.mb semispace_bytes) collected.collections;
      let rows =
        List.mapi
          (fun i size ->
            Report.size_label size
            :: List.map
                 (fun cpu -> Report.pct (o_gc cpu ~baseline ~collected i))
                 Memsim.Timing.all_processors)
          sizes
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
  let jobs = Runner.jobs () in
  let sizes = [ Memsim.Sweep.kb 64; Memsim.Sweep.kb 256; Memsim.Sweep.mb 1 ] in
  let baseline = measure ~jobs ~scale w (caches sizes) in
  (* The trail keeps growing, so the semispace must stay ahead of the
     live set while remaining much smaller than total allocation. *)
  let semispace_bytes = max (1024 * 1024) (baseline.bytes_allocated / 4) in
  let cheney =
    measure ~jobs ~scale ~gc:(Vscheme.Machine.Cheney { semispace_bytes }) w
      (caches sizes)
  in
  let generational =
    measure ~jobs ~scale
      ~gc:
        (Vscheme.Machine.Generational
           { nursery_bytes = semispace_bytes; old_bytes = 24 * 1024 * 1024 })
      w (caches sizes)
  in
  Format.fprintf ppf
    "@.lred allocates %s with a trail that grows to the end of the run;@.\
     Cheney semispaces %s (%d collections), generational nursery of the \
     same size (%d collections).@."
    (Report.mb baseline.bytes_allocated)
    (Report.mb semispace_bytes) cheney.collections generational.collections;
  let rows =
    List.concat
      (List.mapi
         (fun i size ->
           List.map
             (fun cpu ->
               [ Report.size_label size;
                 Format.asprintf "%a" Memsim.Timing.pp_processor cpu;
                 Report.pct (o_gc cpu ~baseline ~collected:cheney i);
                 Report.pct (o_gc cpu ~baseline ~collected:generational i)
               ])
             Memsim.Timing.all_processors)
         sizes)
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
  let jobs = Runner.jobs () in
  let configs = caches [ Memsim.Sweep.kb 64; Memsim.Sweep.mb 1 ] in
  let baseline = measure ~jobs w configs in
  let old_bytes = 24 * 1024 * 1024 in
  let nurseries =
    [ 16 * 1024; 32 * 1024; 64 * 1024; 256 * 1024; 1024 * 1024;
      4 * 1024 * 1024 ]
  in
  let rows =
    List.map
      (fun nursery_bytes ->
        let collected =
          measure ~jobs
            ~gc:(Vscheme.Machine.Generational { nursery_bytes; old_bytes })
            w configs
        in
        [ Report.size_label nursery_bytes;
          string_of_int collected.collections;
          Report.eng collected.collector_insns;
          Report.pct (o_gc Memsim.Timing.Fast ~baseline ~collected 0);
          Report.pct (o_gc Memsim.Timing.Fast ~baseline ~collected 1)
        ])
      nurseries
  in
  Report.table ppf
    ~headers:
      [ "nursery"; "collections"; "I_gc";
        "O_gc fast @64k"; "O_gc fast @1m" ]
    ~rows;
  let floor64 =
    Memsim.Timing.cache_overhead Memsim.Timing.Fast ~block_bytes:block
      ~fetches:baseline.hiers.(0).levels.(0).Memsim.Cache.fetches
      ~instructions:baseline.insns
  in
  Format.fprintf ppf
    "@.the program's whole cache overhead without GC (fast, 64k) is %s - \
     the most an aggressive@.collector could possibly recover; the rows \
     above show what shrinking the nursery actually costs.@."
    (Report.pct floor64)
