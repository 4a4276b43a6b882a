let program_table ppf =
  Report.heading ppf
    "E-T1 (sec. 3): test programs, run without garbage collection";
  let rows =
    List.map
      (fun w ->
        let r = Runner.with_lease w (fun r _ -> r) in
        [ w.Workloads.Workload.name;
          string_of_int (Workloads.Workload.source_lines w);
          Report.mb r.Runner.stats.Vscheme.Machine.bytes_allocated;
          Report.eng r.Runner.stats.Vscheme.Machine.mutator_insns;
          Report.eng r.Runner.refs;
          Format.sprintf "%.2f"
            (float_of_int r.Runner.refs
             /. float_of_int r.Runner.stats.Vscheme.Machine.mutator_insns)
        ])
      Workloads.Workload.all
  in
  Report.table ppf
    ~headers:[ "program"; "lines"; "alloc"; "insns"; "refs"; "refs/insn" ]
    ~rows;
  Format.fprintf ppf
    "paper: orbit 15k lines/161mb, imps 42k/84mb, lp 2.7k/125mb, nbody \
     1.5k/116mb, gambit 15k/357mb; refs/insn 0.26-0.29.@.\
     Runs here are scaled down (REPRO_SCALE multiplies them); the ratios \
     are the comparable quantities.@."

let penalty_table ppf =
  Report.heading ppf "E-T2 (sec. 5): miss penalties, in processor cycles";
  let rows =
    List.map
      (fun block_bytes ->
        [ string_of_int block_bytes;
          string_of_int
            (Memsim.Timing.miss_penalty_cycles Memsim.Timing.Slow ~block_bytes);
          string_of_int
            (Memsim.Timing.miss_penalty_cycles Memsim.Timing.Fast ~block_bytes)
        ])
      Memsim.Sweep.paper_block_sizes
  in
  Report.table ppf
    ~headers:[ "block size (bytes)"; "slow penalty"; "fast penalty" ]
    ~rows;
  Format.fprintf ppf
    "model: 30ns setup + 180ns access + 30ns per 16 bytes; slow cycle 30ns \
     (33MHz), fast cycle 2ns (500MHz).@."
