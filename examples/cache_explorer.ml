(* Explore the cache design space for one workload: a miniature of the
   §5 control experiment, plus the §7 sweep plot, from one program run.

   Run with:  dune exec examples/cache_explorer.exe [workload] *)

let () =
  let w =
    match Sys.argv with
    | [| _; name |] -> (
      match Workloads.Workload.find name with
      | Some w -> w
      | None ->
        prerr_endline ("unknown workload " ^ name);
        exit 1)
    | _ -> Workloads.Workload.mexpr
  in
  let cache_sizes = [ 32 * 1024; 64 * 1024; 256 * 1024; 1024 * 1024 ] in
  let block_sizes = [ 16; 64; 256 ] in
  let sweep =
    Memsim.Sweep.create (Memsim.Sweep.grid ~cache_sizes ~block_sizes ())
  in
  (* One recording feeds every cache in the grid plus the sweep plot. *)
  let plot_level =
    Memsim.Level.create
      (Memsim.Level.config ~size_bytes:(64 * 1024) ~block_bytes:64 ~ways:1 ())
  in
  let plot =
    Analysis.Miss_plot.create ~level:plot_level ~rows:24 ~refs_per_col:131072
      ()
  in
  let r, recording = Core.Runner.record w in
  Memsim.Sweep.hier_run_serial (Memsim.Sweep.hiers sweep) recording;
  Memsim.Recording.replay recording (Analysis.Miss_plot.sink plot);
  Memsim.Recording.release recording;
  let insns = r.Core.Runner.stats.Vscheme.Machine.mutator_insns in
  Printf.printf "workload %s: %d instructions, %d references\n\n"
    w.Workloads.Workload.name insns r.Core.Runner.refs;
  Core.Report.table Format.std_formatter
    ~headers:[ "cache"; "block"; "miss ratio"; "O_cache slow"; "O_cache fast" ]
    ~rows:
      (List.map
         (fun (cfg, stats) ->
           let ratio =
             float_of_int stats.Memsim.Cache.misses
             /. float_of_int (max 1 stats.Memsim.Cache.refs)
           in
           let block_bytes = cfg.Memsim.Level.block_bytes in
           let o cpu =
             Memsim.Timing.cache_overhead cpu ~block_bytes
               ~fetches:stats.Memsim.Cache.fetches ~instructions:insns
           in
           [ Core.Report.size_label cfg.Memsim.Level.size_bytes;
             string_of_int block_bytes ^ "b";
             Format.sprintf "%.4f" ratio;
             Core.Report.pct (o Memsim.Timing.Slow);
             Core.Report.pct (o Memsim.Timing.Fast)
           ])
         (Memsim.Sweep.results sweep));
  print_newline ();
  Analysis.Miss_plot.render Format.std_formatter plot
