type pass = {
  insns : int list; (* per workload *)
  wv : (Memsim.Level.config * Memsim.Cache.stats) list list;
  fow : (Memsim.Level.config * Memsim.Cache.stats) list list;
}

(* Trace once, sweep many: each workload's trace is leased from the
   trace memo (recorded unless an earlier experiment's is still kept);
   the write-validate and fetch-on-write grids (40 caches each) then
   replay the completed recording, chunk-batched and parallel across
   domains when [Runner.jobs () > 1].  Production itself is sharded
   with [Runner.record_grid]: the five workload runs are independent,
   so batches of [jobs] of them are leased concurrently on the domain
   pool (batching bounds pinned recordings to [jobs] at a time). *)
let run_pass () =
  let jobs = Runner.jobs () in
  let rec split i = function
    | x :: tl when i > 0 ->
      let now, later = split (i - 1) tl in
      (x :: now, later)
    | ws -> ([], ws)
  in
  let sweep_one w (r, recording) =
    let grid policy =
      Memsim.Sweep.create
        (Memsim.Sweep.grid ~write_miss_policy:policy
           ~cache_sizes:Memsim.Sweep.paper_cache_sizes
           ~block_sizes:Memsim.Sweep.paper_block_sizes ())
    in
    let label tag = "sweep." ^ w.Workloads.Workload.name ^ "." ^ tag in
    let sw_wv = grid Memsim.Cache.Write_validate in
    Runner.sweep_recording ~label:(label "wv") sw_wv recording;
    let sw_fow = grid Memsim.Cache.Fetch_on_write in
    Runner.sweep_recording ~label:(label "fow") sw_fow recording;
    ( r.Runner.stats.Vscheme.Machine.mutator_insns,
      Memsim.Sweep.results sw_wv,
      Memsim.Sweep.results sw_fow )
  in
  let rec batches acc = function
    | [] -> List.rev acc
    | ws ->
      let now, later = split jobs ws in
      let recorded =
        Runner.record_grid ~jobs
          (List.map
             (fun w ->
               Runner.cell
                 ~label:("sweep." ^ w.Workloads.Workload.name ^ ".wv") w)
             now)
      in
      let res =
        Fun.protect
          ~finally:(fun () ->
            Array.iter (fun (_, r) -> Memsim.Recording.release r) recorded)
          (fun () -> List.mapi (fun i w -> sweep_one w recorded.(i)) now)
      in
      batches (List.rev_append res acc) later
  in
  let results = batches [] Workloads.Workload.all in
  { insns = List.map (fun (i, _, _) -> i) results;
    wv = List.map (fun (_, a, _) -> a) results;
    fow = List.map (fun (_, _, b) -> b) results
  }

let pass = lazy (run_pass ())

let find_stats results ~size ~block =
  let cfg, stats =
    List.find
      (fun ((c : Memsim.Level.config), _) ->
        c.Memsim.Level.size_bytes = size && c.Memsim.Level.block_bytes = block)
      results
  in
  ignore cfg;
  stats

(* Average O_cache across workloads for one grid point. *)
let average_overhead ?(penalty = Memsim.Timing.miss_penalty) p grids cpu ~size
    ~block ~penalized =
  let overheads =
    List.map2
      (fun insns results ->
        let stats = find_stats results ~size ~block in
        float_of_int (penalized stats)
        *. penalty cpu ~block_bytes:block
        /. float_of_int insns)
      p.insns grids
  in
  List.fold_left ( +. ) 0.0 overheads /. float_of_int (List.length overheads)

let fetches (s : Memsim.Cache.stats) = s.Memsim.Cache.fetches
let writebacks (s : Memsim.Cache.stats) = s.Memsim.Cache.writebacks

let overhead_table ppf p grids cpu ~penalized =
  let rows =
    List.map
      (fun size ->
        Report.size_label size
        :: List.map
             (fun block ->
               Report.pct
                 (average_overhead p grids cpu ~size ~block ~penalized))
             Memsim.Sweep.paper_block_sizes)
      Memsim.Sweep.paper_cache_sizes
  in
  Report.table ppf
    ~headers:
      ("cache"
       :: List.map
            (fun b -> string_of_int b ^ "b")
            Memsim.Sweep.paper_block_sizes)
    ~rows

let figure_overheads ppf =
  let p = Lazy.force pass in
  Report.heading ppf
    "E-F1 (sec. 5 figure): average cache overhead, no GC, write-validate";
  List.iter
    (fun cpu ->
      Format.fprintf ppf "@.%a processor:@." Memsim.Timing.pp_processor cpu;
      overhead_table ppf p p.wv cpu ~penalized:fetches)
    Memsim.Timing.all_processors;
  Format.fprintf ppf
    "@.paper shape: larger caches and smaller blocks always win; slow \
     processor under 5%% even at 32k/16b;@.fast processor needs ~1mb to \
     get there.@."

let table_write_policy ppf =
  let p = Lazy.force pass in
  Report.heading ppf
    "E-T3 (sec. 5): fetch-on-write minus write-validate, average overhead";
  List.iter
    (fun cpu ->
      Format.fprintf ppf "@.%a processor (average over cache sizes):@."
        Memsim.Timing.pp_processor cpu;
      let rows =
        List.map
          (fun block ->
            let deltas =
              List.map
                (fun size ->
                  average_overhead p p.fow cpu ~size ~block ~penalized:fetches
                  -. average_overhead p p.wv cpu ~size ~block
                       ~penalized:fetches)
                Memsim.Sweep.paper_cache_sizes
            in
            let avg =
              List.fold_left ( +. ) 0.0 deltas
              /. float_of_int (List.length deltas)
            in
            let spread = List.fold_left Float.max neg_infinity deltas
                         -. List.fold_left Float.min infinity deltas
            in
            [ string_of_int block ^ "b"; Report.pct avg;
              Report.pct spread ])
          Memsim.Sweep.paper_block_sizes
      in
      Report.table ppf
        ~headers:[ "block"; "added overhead"; "spread across sizes" ]
        ~rows)
    Memsim.Timing.all_processors;
  Format.fprintf ppf
    "@.paper shape: the penalty of fetch-on-write shrinks with block size \
     and barely depends on cache size;@.slow processor pays ~1%%, fast \
     processor up to ~20%% at 16b blocks.@."

let table_write_backs ppf =
  let p = Lazy.force pass in
  Report.heading ppf
    "E-T4 (sec. 5): write-back traffic overheads (buffered: transfer time \
     only)";
  let rows =
    List.concat_map
      (fun cpu ->
        List.map
          (fun size ->
            [ Format.asprintf "%a" Memsim.Timing.pp_processor cpu;
              Report.size_label size;
              Report.pct
                (average_overhead ~penalty:Memsim.Timing.writeback_penalty p
                   p.wv cpu ~size ~block:16 ~penalized:writebacks);
              Report.pct
                (average_overhead ~penalty:Memsim.Timing.writeback_penalty p
                   p.wv cpu ~size ~block:64 ~penalized:writebacks)
            ])
          [ Memsim.Sweep.kb 32; Memsim.Sweep.kb 256; Memsim.Sweep.mb 1;
            Memsim.Sweep.mb 4 ])
      Memsim.Timing.all_processors
  in
  Report.table ppf
    ~headers:[ "cpu"; "cache"; "16b blocks"; "64b blocks" ]
    ~rows;
  Format.fprintf ppf
    "@.paper: slow processor almost always under 1%%; fast processor under \
     3%% for caches of 1mb or more.@.write-backs drain through a write \
     buffer, so each costs only its bus transfer (30ns per 16 bytes).@."
