let block_bytes = 64
let cache_bytes = 64 * 1024

let stats_config () =
  let mcfg = Vscheme.Machine.default_config in
  { Analysis.Block_stats.block_bytes;
    cache_bytes;
    dynamic_base = Vscheme.Machine.dynamic_base_bytes mcfg;
    stack_base = Vscheme.Machine.stack_base_bytes mcfg;
    stack_limit = Vscheme.Machine.dynamic_base_bytes mcfg
  }

(* One behavioural pass per workload, shared by F4, T7 and T8. *)
let pass =
  lazy
    (List.map
       (fun w ->
         let bs = Analysis.Block_stats.create (stats_config ()) in
         let _, recording = Runner.record w in
         Memsim.Recording.replay recording (Analysis.Block_stats.sink bs);
         Memsim.Recording.release recording;
         (w.Workloads.Workload.name, bs))
       Workloads.Workload.all)

let figure_miss_plot ppf =
  Report.heading ppf
    "E-F3 (sec. 7 figure): cache-miss sweep plot, selfcomp, 64k cache / \
     64b blocks";
  let level =
    Memsim.Level.create
      (Memsim.Level.config ~size_bytes:cache_bytes ~block_bytes ~ways:1 ())
  in
  let plot =
    Analysis.Miss_plot.create ~level ~rows:32 ~refs_per_col:65536 ()
  in
  let _, recording = Runner.record Workloads.Workload.selfcomp in
  Memsim.Recording.replay recording (Analysis.Miss_plot.sink plot);
  Memsim.Recording.release recording;
  Analysis.Miss_plot.render ppf plot;
  Format.fprintf ppf
    "@.paper shape: broken diagonal lines - the allocation pointer \
     sweeping the cache; steep@.segments are bursts of allocation; \
     horizontal stripes would be thrashing blocks.@."

let lifetime_points = [ 1024; 8192; 65536; 524288; 4194304; 33554432 ]

(* The paper's figure: one cumulative curve per program, log-scaled
   lifetimes on x.  Each program plots with the initial of its name. *)
let render_lifetime_chart ppf pass =
  let rows = 16 in
  let cols = 96 in
  let lo = Float.log10 16.0 in
  let hi = Float.log10 (64.0 *. 1024.0 *. 1024.0) in
  let canvas = Analysis.Ascii.create ~rows ~cols in
  let sample_points =
    List.init cols (fun c ->
        let frac = float_of_int c /. float_of_int (cols - 1) in
        int_of_float (Float.pow 10.0 (lo +. (frac *. (hi -. lo)))))
  in
  List.iter
    (fun (name, bs) ->
      let letter = name.[0] in
      let cdf = Analysis.Block_stats.lifetime_cdf bs ~points:sample_points in
      List.iteri
        (fun c (_, frac) ->
          let row = rows - 1 - int_of_float (frac *. float_of_int (rows - 1)) in
          Analysis.Ascii.set canvas ~row ~col:c letter)
        cdf)
    pass;
  let row_labels r =
    if r = 0 then "100%"
    else if r = rows - 1 then "0%"
    else if r = (rows - 1) / 2 then "50%"
    else ""
  in
  Format.fprintf ppf
    "cumulative fraction of dynamic blocks vs lifetime (log scale, 16 to \
     64m references);@.s=selfcomp p=prover l=lred n=nbody m=mexpr@.";
  Analysis.Ascii.render ppf ~row_labels canvas

let figure_lifetimes ppf =
  Report.heading ppf
    "E-F4 (sec. 7 figure): dynamic-block lifetime CDFs, 64b blocks; \
     one-cycle fraction at 64k";
  render_lifetime_chart ppf (Lazy.force pass);
  Format.fprintf ppf "@.";
  let rows =
    List.map
      (fun (name, bs) ->
        let cdf = Analysis.Block_stats.lifetime_cdf bs ~points:lifetime_points in
        let summary = Analysis.Block_stats.dynamic_summary bs in
        let one_cycle =
          float_of_int summary.Analysis.Block_stats.one_cycle
          /. float_of_int (max 1 summary.Analysis.Block_stats.blocks)
        in
        name
        :: (List.map (fun (_, f) -> Report.pct f) cdf
            @ [ Report.pct one_cycle ]))
      (Lazy.force pass)
  in
  Report.table ppf
    ~headers:
      ("program"
       :: (List.map (fun p -> "<=" ^ Report.eng p) lifetime_points
           @ [ "one-cycle" ]))
    ~rows;
  Format.fprintf ppf
    "@.paper shape: about half (or more) of dynamic blocks live no longer \
     than 64k references; at@.least half, often more than 80%%, are \
     one-cycle blocks in a 64k cache.@."

let table_activity ppf =
  Report.heading ppf
    "E-T7 (sec. 7): multi-cycle block activity and per-block reference \
     counts";
  let rows =
    List.map
      (fun (name, bs) ->
        let s = Analysis.Block_stats.dynamic_summary bs in
        let le4 =
          float_of_int s.Analysis.Block_stats.multi_cycle_le4
          /. float_of_int (max 1 s.Analysis.Block_stats.multi_cycle)
        in
        let lo, hi = Analysis.Block_stats.median_refcount_bucket bs in
        [ name;
          string_of_int s.Analysis.Block_stats.blocks;
          string_of_int s.Analysis.Block_stats.multi_cycle;
          Report.pct le4;
          Format.sprintf "%d-%d" lo hi
        ])
      (Lazy.force pass)
  in
  Report.table ppf
    ~headers:
      [ "program"; "dynamic blocks"; "multi-cycle"; "active <=4 cycles";
        "modal refs/block" ]
    ~rows;
  Format.fprintf ppf
    "@.paper: at least 90%% of multi-cycle blocks are active in no more \
     than four cycles; most@.dynamic blocks are referenced between 32 and \
     63 times (2-4 references per word).@."

let table_busy ppf =
  Report.heading ppf "E-T8 (sec. 7): busy blocks (>= 0.1%% of references)";
  let rows =
    List.map
      (fun (name, bs) ->
        let b = Analysis.Block_stats.busy_summary bs in
        [ name;
          string_of_int b.Analysis.Block_stats.busy_blocks;
          string_of_int b.Analysis.Block_stats.busy_static;
          string_of_int b.Analysis.Block_stats.busy_stack;
          string_of_int b.Analysis.Block_stats.busy_dynamic;
          Report.pct b.Analysis.Block_stats.busy_ref_fraction;
          Report.pct b.Analysis.Block_stats.busiest_fraction
        ])
      (Lazy.force pass)
  in
  Report.table ppf
    ~headers:
      [ "program"; "busy"; "static"; "stack"; "dynamic"; "refs to busy";
        "busiest block" ]
    ~rows;
  Format.fprintf ppf
    "@.paper: 59-155 busy blocks per program (<0.02%% of active blocks) \
     taking ~75%% of all references;@.stack references concentrate in a \
     few extremely busy blocks; the busiest block is a small@.runtime \
     vector taking ~6.7%% of all references.@."
