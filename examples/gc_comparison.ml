(* Compare collectors on one workload: the §6 experiment in miniature.
   Runs the compiler workload with no GC (baseline), a Cheney semispace
   collector, an infrequent generational collector, and an "aggressive"
   cache-sized-nursery generational collector, and prints O_gc for
   each.

   Run with:  dune exec examples/gc_comparison.exe [workload] *)

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
  (* One direct-mapped 64k cache with 64-byte blocks. *)
  let cache = Core.Exp_gc.caches [ 64 * 1024 ] in
  let measure gc = Core.Exp_gc.measure ~jobs:1 ~gc w cache in
  let baseline = measure Vscheme.Machine.No_gc in
  Printf.printf "baseline (no GC): %d instructions, %s allocated, result %s\n\n"
    baseline.Core.Exp_gc.insns
    (Core.Report.mb baseline.Core.Exp_gc.bytes_allocated)
    baseline.Core.Exp_gc.value;
  let first_gen =
    Core.Exp_gc.semispace_for
      ~bytes_allocated:baseline.Core.Exp_gc.bytes_allocated
  in
  let configs =
    [ ( "cheney (infrequent)",
        Vscheme.Machine.Cheney { semispace_bytes = first_gen } );
      ( "generational (infrequent)",
        Vscheme.Machine.Generational
          { nursery_bytes = first_gen; old_bytes = 16 * 1024 * 1024 } );
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
           let collected = measure gc in
           if
             not
               (String.equal collected.Core.Exp_gc.value
                  baseline.Core.Exp_gc.value)
           then failwith "collector changed the program's result!";
           let o cpu = Core.Exp_gc.o_gc cpu ~baseline ~collected 0 in
           [ name;
             string_of_int collected.Core.Exp_gc.collections;
             Core.Report.eng collected.Core.Exp_gc.collector_insns;
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
