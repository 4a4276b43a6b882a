type t = {
  id : string;
  title : string;
  paper_artifact : string;
  run : Format.formatter -> unit;
}

let all =
  [ { id = "T1";
      title = "test-program sizes (lines, allocation, instructions, refs)";
      paper_artifact = "sec. 3 table";
      run = Tables.program_table
    };
    { id = "T2";
      title = "miss penalties per block size";
      paper_artifact = "sec. 5 table";
      run = Tables.penalty_table
    };
    { id = "F1";
      title = "average cache overhead without GC";
      paper_artifact = "sec. 5 figure";
      run = Exp_control.figure_overheads
    };
    { id = "T3";
      title = "write-validate vs fetch-on-write";
      paper_artifact = "sec. 5 text";
      run = Exp_control.table_write_policy
    };
    { id = "T4";
      title = "write-back traffic overheads";
      paper_artifact = "sec. 5 text";
      run = Exp_control.table_write_backs
    };
    { id = "F2";
      title = "Cheney collection overheads";
      paper_artifact = "sec. 6 figure";
      run = Exp_gc.figure_gc_overhead
    };
    { id = "T5";
      title = "the lp pathology: Cheney vs generational";
      paper_artifact = "sec. 6 text";
      run = Exp_gc.table_lp_pathology
    };
    { id = "T6";
      title = "aggressive collection cannot pay for itself";
      paper_artifact = "sec. 6 text";
      run = Exp_gc.table_aggressive
    };
    { id = "F3";
      title = "cache-miss sweep plot";
      paper_artifact = "sec. 7 figure (p. 7)";
      run = Exp_behavior.figure_miss_plot
    };
    { id = "F4";
      title = "dynamic-block lifetime CDFs and one-cycle fractions";
      paper_artifact = "sec. 7 figure";
      run = Exp_behavior.figure_lifetimes
    };
    { id = "T7";
      title = "multi-cycle activity and per-block reference counts";
      paper_artifact = "sec. 7 text";
      run = Exp_behavior.table_activity
    };
    { id = "T8";
      title = "busy blocks";
      paper_artifact = "sec. 7 text";
      run = Exp_behavior.table_busy
    };
    { id = "F5";
      title = "cache activity: selfcomp at 64k";
      paper_artifact = "sec. 7 figure (orbit, 64k)";
      run = Exp_activity.figure_selfcomp_64k
    };
    { id = "F6";
      title = "cache activity: prover at 64k";
      paper_artifact = "sec. 7 figure (imps)";
      run = Exp_activity.figure_prover_64k
    };
    { id = "F7";
      title = "cache activity: mexpr at 64k";
      paper_artifact = "sec. 7 figure (gambit)";
      run = Exp_activity.figure_mexpr_64k
    };
    { id = "F8";
      title = "cache activity: selfcomp at 128k";
      paper_artifact = "sec. 7 figure (orbit, 128k)";
      run = Exp_activity.figure_selfcomp_128k
    };
    { id = "A1";
      title = "ablation: collector families (Cheney / generational / mark-sweep)";
      paper_artifact = "extension of sec. 2+6";
      run = Exp_ablation.table_collector_families
    };
    { id = "A2";
      title = "ablation: busy-block placement worst case";
      paper_artifact = "extension of sec. 7";
      run = Exp_ablation.table_placement
    };
    { id = "A3";
      title = "ablation: set-associative caches";
      paper_artifact = "extension of sec. 4";
      run = Exp_ablation.table_associativity
    };
    { id = "A4";
      title = "ablation: two-level cache hierarchy";
      paper_artifact = "extension of sec. 4";
      run = Exp_ablation.table_two_level
    };
    { id = "H1";
      title = "modern 3-level hierarchies: does the conclusion hold?";
      paper_artifact = "extension of sec. 4";
      run = Exp_hier.grid
    }
  ]

let find id =
  let id = String.uppercase_ascii id in
  List.find_opt (fun e -> String.equal e.id id) all
