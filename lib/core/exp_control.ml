let grid policy =
  Memsim.Sweep.grid ~write_miss_policy:policy
    ~cache_sizes:Memsim.Sweep.paper_cache_sizes
    ~block_sizes:Memsim.Sweep.paper_block_sizes ()

(* Trace once, sweep many: each workload's trace is leased from the
   trace memo (recorded unless an earlier experiment's is still kept)
   and replayed into both grids as one-level hierarchies, which
   [Exp_gc.measure] claims across [Runner.jobs ()] domains.  One
   recording is resident at a time. *)
let run_pass () =
  let configs =
    List.map
      (fun c -> Memsim.Hier.config ~levels:[ c ] ())
      (grid Memsim.Cache.Write_validate @ grid Memsim.Cache.Fetch_on_write)
  in
  List.map
    (fun w -> Exp_gc.measure ~jobs:(Runner.jobs ()) w configs)
    Workloads.Workload.all

(* Per workload, its run measured through the write-validate grid
   followed by the fetch-on-write one (40 caches each). *)
let pass = lazy (run_pass ())

let find_stats (m : Exp_gc.measured) policy ~size ~block =
  let matches (r : Exp_gc.replayed) =
    let c = r.Exp_gc.geometry.Memsim.Hier.levels.(0) in
    c.Memsim.Level.write_miss_policy = policy
    && c.Memsim.Level.size_bytes = size
    && c.Memsim.Level.block_bytes = block
  in
  (List.find matches (Array.to_list m.Exp_gc.hiers)).Exp_gc.levels.(0)

(* Average O_cache across workloads for one grid point. *)
let average_overhead ?(penalty = Memsim.Timing.miss_penalty) p policy cpu
    ~size ~block ~penalized =
  let overheads =
    List.map
      (fun (m : Exp_gc.measured) ->
        let stats = find_stats m policy ~size ~block in
        float_of_int (penalized stats)
        *. penalty cpu ~block_bytes:block
        /. float_of_int m.Exp_gc.insns)
      p
  in
  List.fold_left ( +. ) 0.0 overheads /. float_of_int (List.length overheads)

let fetches (s : Memsim.Cache.stats) = s.Memsim.Cache.fetches
let writebacks (s : Memsim.Cache.stats) = s.Memsim.Cache.writebacks

let overhead_table ppf p policy cpu ~penalized =
  let rows =
    List.map
      (fun size ->
        Report.size_label size
        :: List.map
             (fun block ->
               Report.pct
                 (average_overhead p policy cpu ~size ~block ~penalized))
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
      overhead_table ppf p Memsim.Cache.Write_validate cpu ~penalized:fetches)
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
                  average_overhead p Memsim.Cache.Fetch_on_write cpu ~size ~block ~penalized:fetches
                  -. average_overhead p Memsim.Cache.Write_validate cpu ~size ~block
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
                   Memsim.Cache.Write_validate cpu ~size ~block:16 ~penalized:writebacks);
              Report.pct
                (average_overhead ~penalty:Memsim.Timing.writeback_penalty p
                   Memsim.Cache.Write_validate cpu ~size ~block:64 ~penalized:writebacks)
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
