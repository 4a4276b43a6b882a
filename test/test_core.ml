(* Experiment-harness tests: runner plumbing, report formatting, the
   experiment registry, and the cheap experiments end to end. *)

let test_runner () =
  let cache =
    Memsim.Level.create
      (Memsim.Level.config ~size_bytes:(64 * 1024) ~block_bytes:64 ~ways:1 ())
  in
  let r, recording = Core.Runner.record ~scale:1 Workloads.Workload.prover in
  Memsim.Recording.replay recording (Memsim.Level.sink cache);
  Memsim.Recording.release recording;
  let s = Memsim.Level.stats cache in
  Alcotest.(check int) "cache saw every mutator ref" r.Core.Runner.refs
    s.Memsim.Cache.refs;
  Alcotest.(check int) "no collector refs without GC" 0 r.Core.Runner.collector_refs;
  Alcotest.(check bool) "instructions counted" true
    (r.Core.Runner.stats.Vscheme.Machine.mutator_insns > 0);
  Alcotest.(check bool) "value printed" true (String.length r.Core.Runner.value > 0)

let test_runner_gc () =
  let r, recording =
    Core.Runner.record ~scale:1
      ~gc:(Vscheme.Machine.Cheney { semispace_bytes = 512 * 1024 })
      Workloads.Workload.lred
  in
  Memsim.Recording.release recording;
  Alcotest.(check bool) "collector refs traced" true (r.Core.Runner.collector_refs > 0)

(* The trace memo: two leases of one run make one production and
   read one trace, the trace a fresh Runner.record makes.  A heap size
   no other test uses keeps the key fresh; another heap size is
   another key, even where the trace comes out the same. *)
let test_lease_once () =
  let count name = List.assoc name (Core.Runner.counters ()) in
  let productions = count "runner.productions" in
  let reuses = count "runner.reuses" in
  let lease mb =
    Core.Runner.lease ~scale:1 ~heap_bytes:(mb * 1024 * 1024)
      Workloads.Workload.prover
  in
  let r1, l1 = lease 47 in
  let r2, l2 = lease 47 in
  Alcotest.(check int) "one production" (productions + 1)
    (count "runner.productions");
  Alcotest.(check int) "one reuse" (reuses + 1) (count "runner.reuses");
  let _, other = lease 46 in
  Alcotest.(check int) "another heap, another production" (productions + 2)
    (count "runner.productions");
  Alcotest.(check bool) "same run" true
    (r1.Core.Runner.value = r2.Core.Runner.value
    && r1.Core.Runner.refs = r2.Core.Runner.refs
    && r1.Core.Runner.collector_refs = r2.Core.Runner.collector_refs
    && r1.Core.Runner.stats = r2.Core.Runner.stats);
  let fresh_r, fresh = Core.Runner.record ~scale:1 Workloads.Workload.prover in
  Alcotest.(check bool) "same trace" true (Memsim.Recording.equal l1 l2);
  Alcotest.(check bool) "the trace a fresh record makes" true
    (Memsim.Recording.equal l1 fresh);
  Alcotest.(check bool) "the run a fresh record makes" true
    (fresh_r.Core.Runner.stats = r1.Core.Runner.stats);
  List.iter Memsim.Recording.release [ l1; l2; other; fresh ]

(* A grid whose cell raises releases the cells it did lease: a no-GC
   run that outgrows a 64 KB heap fails after a good cell was kept. *)
let test_record_grid_raise_unpins () =
  let cells =
    Workloads.Workload.
      [ Core.Runner.cell ~scale:1 ~heap_bytes:(45 * 1024 * 1024) prover;
        Core.Runner.cell ~scale:1 ~heap_bytes:(64 * 1024) prover ]
  in
  (match Core.Runner.record_grid ~jobs:1 cells with
   | exception Vscheme.Heap.Out_of_memory _ -> ()
   | _ -> Alcotest.fail "expected the 64 KB cell to run out of memory");
  Alcotest.(check bool) "no trace pinned" true (Kept_probe.no_trace_pinned ())

let test_base_scales () =
  List.iter
    (fun w ->
      Alcotest.(check bool)
        (w.Workloads.Workload.name ^ " has a base scale")
        true
        (Core.Runner.base_scale w >= 1))
    Workloads.Workload.all

let test_layout () =
  let r, recording = Core.Runner.record ~scale:1 Workloads.Workload.prover in
  Memsim.Recording.release recording;
  let dyn = Core.Runner.layout r.Core.Runner.machine ~dynamic_base:true in
  let stack = Core.Runner.layout r.Core.Runner.machine ~dynamic_base:false in
  Alcotest.(check bool) "stack below dynamic" true (stack < dyn);
  Alcotest.(check int) "matches config prediction" dyn
    (Vscheme.Machine.dynamic_base_bytes Vscheme.Machine.default_config)

let test_parse_size () =
  List.iter
    (fun (input, expect) ->
      match Core.Units.parse_size input with
      | Ok n -> Alcotest.(check int) input expect n
      | Error msg -> Alcotest.fail (input ^ ": " ^ msg))
    [ ("1", 1);
      ("4096", 4096);
      ("64k", 64 * 1024);
      ("64K", 64 * 1024);
      ("2m", 2 * 1024 * 1024);
      ("16M", 16 * 1024 * 1024);
      ("1g", 1024 * 1024 * 1024);
      ("2G", 2 * 1024 * 1024 * 1024);
      (" 8k ", 8 * 1024)
    ];
  List.iter
    (fun input ->
      match Core.Units.parse_size input with
      | Ok n -> Alcotest.fail (Printf.sprintf "%S accepted as %d" input n)
      | Error _ -> ())
    [ ""; "k"; "0"; "0k"; "-1"; "-4k"; "1.5m"; "12q"; "1kk"; "0x10";
      (* overflow: the raw digits fit max_int, the multiply does not *)
      "9223372036854775807k"; "9007199254740993g" ]

let test_report_table () =
  let buf = Buffer.create 128 in
  let ppf = Format.formatter_of_buffer buf in
  Core.Report.table ppf ~headers:[ "a"; "bb" ]
    ~rows:[ [ "x"; "1" ]; [ "longer"; "22" ] ];
  Format.pp_print_flush ppf ();
  let lines = String.split_on_char '\n' (Buffer.contents buf) in
  (* header, rule, two rows, trailing empty *)
  Alcotest.(check int) "line count" 5 (List.length lines);
  Alcotest.(check bool) "aligned" true
    (String.length (List.nth lines 2) = String.length (List.nth lines 3))

let test_report_helpers () =
  Alcotest.(check string) "pct" "12.5%" (Core.Report.pct 0.125);
  Alcotest.(check string) "negative pct" "-3.0%" (Core.Report.pct (-0.03));
  Alcotest.(check string) "mb" "1.5mb" (Core.Report.mb (3 * 512 * 1024));
  Alcotest.(check string) "eng" "3.68e9" (Core.Report.eng 3_680_000_000);
  Alcotest.(check string) "eng zero" "0" (Core.Report.eng 0);
  Alcotest.(check string) "size label" "64k" (Core.Report.size_label (64 * 1024))

let test_registry () =
  Alcotest.(check int) "twenty-one experiments" 21
    (List.length Core.Experiments.all);
  let ids =
    [ "T1"; "T2"; "F1"; "T3"; "T4"; "F2"; "T5"; "T6"; "F3"; "F4"; "T7"; "T8";
      "F5"; "F6"; "F7"; "F8"; "A1"; "A2"; "A3"; "A4"; "H1" ]
  in
  Alcotest.(check (list string)) "ids in paper order" ids
    (List.map (fun e -> e.Core.Experiments.id) Core.Experiments.all);
  Alcotest.(check bool) "case-insensitive lookup" true
    (match Core.Experiments.find "f3" with
     | Some e -> e.Core.Experiments.id = "F3"
     | None -> false);
  Alcotest.(check bool) "unknown id" true (Core.Experiments.find "F99" = None);
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (e.Core.Experiments.id ^ " cites the paper")
        true
        (String.length e.Core.Experiments.paper_artifact > 0))
    Core.Experiments.all

let run_experiment id =
  match Core.Experiments.find id with
  | None -> Alcotest.fail ("missing experiment " ^ id)
  | Some e ->
    let buf = Buffer.create 4096 in
    let ppf = Format.formatter_of_buffer buf in
    e.Core.Experiments.run ppf;
    Format.pp_print_flush ppf ();
    Buffer.contents buf

let contains haystack needle =
  let n = String.length needle in
  let rec scan i =
    i + n <= String.length haystack
    && (String.sub haystack i n = needle || scan (i + 1))
  in
  scan 0

let test_t2_values () =
  let out = run_experiment "T2" in
  (* spot-check the exact derived penalties *)
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains out needle))
    [ "120"; "165"; "345"; "23" ]

let test_t1_runs () =
  let out = run_experiment "T1" in
  List.iter
    (fun w ->
      Alcotest.(check bool)
        (w.Workloads.Workload.name ^ " in table")
        true
        (contains out w.Workloads.Workload.name))
    Workloads.Workload.all

let () =
  Alcotest.run "core"
    [ ( "runner",
        [ Alcotest.test_case "runner wiring" `Quick test_runner;
          Alcotest.test_case "runner with GC" `Quick test_runner_gc;
          Alcotest.test_case "lease: one production" `Quick test_lease_once;
          Alcotest.test_case "record_grid: a failed cell unpins the rest"
            `Quick test_record_grid_raise_unpins;
          Alcotest.test_case "base scales" `Quick test_base_scales;
          Alcotest.test_case "layout" `Quick test_layout
        ] );
      ( "units",
        [ Alcotest.test_case "parse_size" `Quick test_parse_size ] );
      ( "report",
        [ Alcotest.test_case "table" `Quick test_report_table;
          Alcotest.test_case "helpers" `Quick test_report_helpers
        ] );
      ( "experiments",
        [ Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "T2 exact values" `Quick test_t2_values;
          Alcotest.test_case "T1 runs" `Slow test_t1_runs
        ] )
    ]
