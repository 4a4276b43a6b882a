(* E-H1: the paper's single-level results under the modern three-level
   hierarchies of sec. 4's closing remark ("we expect these results to
   extend to the two- and even three-level caches that are becoming
   common") — five workloads across five per-CPU presets, GC'd runs
   against no-GC baselines, all through the fused miss-stream
   engine. *)

type measured = {
  insns : int;
  collector_insns : int;
  collections : int;
  bytes_allocated : int;
  per_cpu : (Memsim.Hier.cpu * replayed) list;
}

(* What a replayed hierarchy leaves behind: its geometry and per-level
   counters, not its line state, so ten measured cells stay small. *)
and replayed = {
  geometry : Memsim.Hier.config;
  levels : Memsim.Cache.stats array;
}

(* The sec. 6 O_gc formula lifted to hierarchies: collector stalls,
   the change in program stalls, and the collector's instructions,
   all relative to the baseline program's instruction count. *)
let gc_overhead cpu ~baseline ~collected ~hier_cpu =
  let base = List.assoc hier_cpu baseline.per_cpu in
  let run = List.assoc hier_cpu collected.per_cpu in
  let cycles h = Memsim.Hier.stall_cycles h.geometry h.levels cpu in
  let stall =
    cycles run ~collector:true
    +. cycles run ~collector:false
    -. cycles base ~collector:false
  in
  let work =
    float_of_int (collected.collector_insns + collected.insns - baseline.insns)
  in
  (stall +. work) /. float_of_int baseline.insns

let measure ?gc w =
  let r, recording = Runner.record ?gc w in
  let hiers =
    List.map
      (fun cpu -> (cpu, Memsim.Hier.create (Memsim.Hier.preset cpu)))
      Memsim.Hier.all_cpus
  in
  Memsim.Sweep.hier_run_serial (Array.of_list (List.map snd hiers)) recording;
  Memsim.Recording.release recording;
  { insns = r.Runner.stats.Vscheme.Machine.mutator_insns;
    collector_insns = r.Runner.stats.Vscheme.Machine.collector_insns;
    collections = r.Runner.stats.Vscheme.Machine.collections;
    bytes_allocated = r.Runner.stats.Vscheme.Machine.bytes_allocated;
    per_cpu =
      List.map
        (fun (cpu, h) ->
          ( cpu,
            { geometry = Memsim.Hier.geometry h;
              levels = Memsim.Hier.stats h } ))
        hiers
  }

(* One cell per workload, [gc i] giving workload i's collector.  A
   cell's five presets share one L1 and so form one prefix tree, a
   single claim for the replay pool; parallelism comes from claiming
   whole cells instead, each recorded and replayed on one domain. *)
let measure_all gc =
  let ws = Array.of_list Workloads.Workload.all in
  let cells = Array.make (Array.length ws) None in
  Memsim.Sweep.parallel_for ~jobs:(Runner.jobs ()) (Array.length ws) (fun i ->
      cells.(i) <- Some (measure ?gc:(gc i) ws.(i)));
  Array.map (function Some m -> m | None -> assert false) cells

(* Per-level miss counts of the collected run land in the metrics
   registry, so a --metrics export carries the whole grid. *)
let publish_levels w hiers =
  List.iter
    (fun (cpu, h) ->
      Array.iteri
        (fun i (s : Memsim.Cache.stats) ->
          let name part =
            Printf.sprintf "hier.%s.%s.l%d.%s" w.Workloads.Workload.name
              (Memsim.Hier.cpu_label cpu) (i + 1) part
          in
          let refs = s.Memsim.Cache.refs + s.Memsim.Cache.collector_refs in
          let misses =
            s.Memsim.Cache.misses + s.Memsim.Cache.collector_misses
          in
          Obs.Metrics.Gauge.set
            (Obs.Metrics.gauge Obs.Metrics.default (name "miss_ratio"))
            (float_of_int misses /. float_of_int (max 1 refs));
          Obs.Metrics.Counter.set
            (Obs.Metrics.counter Obs.Metrics.default (name "misses"))
            misses)
        h.levels)
    hiers

let miss_ratio (s : Memsim.Cache.stats) =
  let refs = s.Memsim.Cache.refs + s.Memsim.Cache.collector_refs in
  let misses = s.Memsim.Cache.misses + s.Memsim.Cache.collector_misses in
  Format.sprintf "%.4f" (float_of_int misses /. float_of_int (max 1 refs))

let grid ppf =
  Report.heading ppf
    "E-H1 (extension of sec. 4): GC overhead under modern 3-level \
     hierarchies (fused engine)";
  let baselines = measure_all (fun _ -> None) in
  let semispace_bytes i =
    max (512 * 1024) (baselines.(i).bytes_allocated / 8)
  in
  let collecteds =
    measure_all (fun i ->
        Some (Vscheme.Machine.Cheney { semispace_bytes = semispace_bytes i }))
  in
  (* Gauges are published from this domain, after the pool has joined:
     the metrics registry is not synchronized. *)
  List.iteri
    (fun i w ->
      let baseline = baselines.(i) and collected = collecteds.(i) in
      let semispace_bytes = semispace_bytes i in
      publish_levels w collected.per_cpu;
      Format.fprintf ppf
        "@.%s: %s allocated, %s semispaces, %d collections@."
        w.Workloads.Workload.name
        (Report.mb baseline.bytes_allocated)
        (Report.mb semispace_bytes) collected.collections;
      let rows =
        List.map
          (fun cpu ->
            let stats = (List.assoc cpu collected.per_cpu).levels in
            [ Memsim.Hier.cpu_label cpu;
              miss_ratio stats.(0);
              miss_ratio stats.(1);
              miss_ratio stats.(2);
              Report.pct
                (gc_overhead Memsim.Timing.Slow ~baseline ~collected
                   ~hier_cpu:cpu);
              Report.pct
                (gc_overhead Memsim.Timing.Fast ~baseline ~collected
                   ~hier_cpu:cpu)
            ])
          Memsim.Hier.all_cpus
      in
      Report.table ppf
        ~headers:[ "cpu"; "L1 miss"; "L2 miss"; "L3 miss";
                   "O_gc slow"; "O_gc fast" ]
        ~rows)
    Workloads.Workload.all;
  Format.fprintf ppf
    "@.paper shape: the sec. 6 conclusion (fast-processor O_gc of 5-8%% \
     at paper-sized caches) softens@.under these hierarchies - the 256k \
     L2 behind the 32k L1 absorbs most of the nursery's reuse and@.the \
     MRU/QLRU L3s hold the survivors, so O_gc lands under 1%% for most \
     workloads (nbody again@.slightly negative, as in the paper).  The \
     exception is lred, whose growing trail recopies on@.every \
     collection (sec. 6's lp pathology): it still pays ~5%% on the fast \
     processor behind any@.of the L3s.  The QLRU-R0U0 Coffee Lake L3 \
     tracks the QLRU-R1U2 parts within noise.@."
