(* Differential tests for the trace fast path and record-then-replay.

   For every workload, the direct writer (Mem.record_into) must
   produce a recording bit-identical to the generic closure sink, with
   the same result value and per-phase reference counts; and a
   Runner.record_grid cell replayed by Runner.sweep_recording — the
   path every experiment driver takes — must yield per-cache
   statistics bit-identical to the per-event oracle over the
   sink-path recording, with one job and with several.  `make check`
   runs this binary under REPRO_JOBS=2 as well. *)

let grid () =
  Memsim.Sweep.create
    (Memsim.Sweep.grid
       ~cache_sizes:[ Memsim.Sweep.kb 32; Memsim.Sweep.kb 256 ]
       ~block_sizes:[ 32; 128 ] ())

let check_identical name reference candidate =
  List.iter2
    (fun (_, (a : Memsim.Cache.stats)) (_, (b : Memsim.Cache.stats)) ->
      Alcotest.(check bool) (name ^ ": stats bit-identical") true (a = b))
    (Memsim.Sweep.results reference)
    (Memsim.Sweep.results candidate)

let test_fast_path w () =
  let oracle_r, oracle_rec = Core.Runner.record ~direct:false ~scale:1 w in
  let fast_r, fast_rec = Core.Runner.record ~scale:1 w in
  Alcotest.(check bool)
    "recordings bit-identical" true
    (Memsim.Recording.equal oracle_rec fast_rec);
  Alcotest.(check string)
    "result value" oracle_r.Core.Runner.value fast_r.Core.Runner.value;
  Alcotest.(check int) "mutator refs" oracle_r.Core.Runner.refs
    fast_r.Core.Runner.refs;
  Alcotest.(check int) "collector refs" oracle_r.Core.Runner.collector_refs
    fast_r.Core.Runner.collector_refs;
  Alcotest.(check int) "recording length"
    (Memsim.Recording.length oracle_rec)
    (oracle_r.Core.Runner.refs + oracle_r.Core.Runner.collector_refs)

(* The E-A1 path: one record_grid cell, then sweep_recording into the
   grid, at one job and at several. *)
let test_record_then_replay w () =
  let _, recording = Core.Runner.record ~direct:false ~scale:1 w in
  let oracle = grid () in
  Memsim.Recording.replay recording (Memsim.Sweep.sink oracle);
  let saved = Core.Runner.jobs () in
  Fun.protect
    ~finally:(fun () -> Core.Runner.set_jobs saved)
    (fun () ->
      List.iter
        (fun jobs ->
          Core.Runner.set_jobs jobs;
          let label = "test.fastpath" in
          let _, recorded =
            (Core.Runner.record_grid [ Core.Runner.cell ~scale:1 ~label w ]).(0)
          in
          let sw = grid () in
          Core.Runner.sweep_recording ~label sw recorded;
          check_identical
            (Printf.sprintf "sweep_recording jobs=%d" jobs)
            oracle sw;
          Alcotest.(check bool)
            (Printf.sprintf "recording = sink-path recording, jobs=%d" jobs)
            true
            (Memsim.Recording.equal recording recorded);
          Memsim.Recording.release recorded)
        [ 1; 3 ])

let test_format_roundtrip () =
  (* a real trace survives v1 -> load -> v2 -> load -> v3 -> load
     unchanged (the v3 leg exercises the mmap loader; v1 files come
     from the test-local writer, as nothing writes v1 any more).  The
     file sizes are exact: v1 is a 16-byte header plus 8 bytes per
     event, and the
     v2 size pins the varint+delta codec's compression (2.245 B/event,
     3.563x smaller than v1) byte for byte.  [Recording.saved_bytes]
     must predict each file's size without writing it. *)
  let _, recording = Core.Runner.record ~scale:1 Workloads.Workload.nbody in
  Alcotest.(check int) "events" 2_115_056 (Memsim.Recording.length recording);
  let path = Filename.temp_file "repro" ".trace" in
  let size () = (Unix.stat path).Unix.st_size in
  let predicted format rc =
    Alcotest.(check int)
      (Memsim.Recording.format_label format ^ " saved_bytes = file size")
      (size ())
      (Memsim.Recording.saved_bytes ~format rc)
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      V1_file.save recording path;
      Alcotest.(check int) "v1 bytes" 16_920_464 (size ());
      let as_v1 = Memsim.Recording.load path in
      Memsim.Recording.save ~format:Memsim.Recording.V2 as_v1 path;
      Alcotest.(check int) "v2 bytes" 4_748_446 (size ());
      predicted Memsim.Recording.V2 as_v1;
      let as_v2 = Memsim.Recording.load path in
      Alcotest.(check bool)
        "v1 -> v2 round trip" true
        (Memsim.Recording.equal recording as_v2);
      Memsim.Recording.save ~format:Memsim.Recording.V3 as_v2 path;
      Alcotest.(check int) "v3 bytes" 16_920_472 (size ());
      predicted Memsim.Recording.V3 as_v2;
      let as_v3 = Memsim.Recording.load path in
      Alcotest.(check bool)
        "v2 -> v3 round trip" true
        (Memsim.Recording.equal recording as_v3))

(* The mmap load path (v3) and the heap decode path (v2) must hand
   back the same events for the same trace — and both must match the
   recording that produced the files.  Also pins the mmap recording's
   read-only contract: appends must fail loudly, never corrupt the
   mapped file pages. *)
let test_mmap_vs_heap w () =
  let _, recording = Core.Runner.record ~scale:1 w in
  let load_via format =
    let path = Filename.temp_file "repro" ".trace" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Memsim.Recording.save ~format recording path;
        Memsim.Recording.load path)
  in
  let mapped = load_via Memsim.Recording.V3 in
  let heap = load_via Memsim.Recording.V2 in
  Alcotest.(check bool)
    "mmap load = original" true
    (Memsim.Recording.equal recording mapped);
  Alcotest.(check bool)
    "mmap load = heap load" true
    (Memsim.Recording.equal mapped heap);
  let out = Memsim.Recording.sink mapped in
  Alcotest.check_raises "mapped recording is read-only"
    (Invalid_argument
       "Recording.append: recording is read-only (memory-mapped)")
    (fun () ->
      out.Memsim.Trace.access 0 Memsim.Trace.Read Memsim.Trace.Mutator)

(* Sharded production: for any job count, record_grid's output indexed
   by input order must be bit-for-bit what recording the cells one
   after another produces.  Each job count asks for its own heap size,
   which is in the trace memo's key but does not change a no-GC trace,
   so every pass records afresh on the worker domains. *)
let test_record_grid () =
  let serial =
    List.map (fun w -> Core.Runner.record ~scale:1 w) Workloads.Workload.all
  in
  List.iter
    (fun jobs ->
      let recorded =
        Core.Runner.record_grid ~jobs
          (List.map
             (fun w ->
               Core.Runner.cell ~heap_bytes:((48 + jobs) * 1024 * 1024)
                 ~scale:1 w)
             Workloads.Workload.all)
      in
      List.iteri
        (fun i ((sr : Core.Runner.result), srec) ->
          let r, recording = recorded.(i) in
          let name =
            Printf.sprintf "jobs=%d %s" jobs
              sr.Core.Runner.workload.Workloads.Workload.name
          in
          Alcotest.(check string)
            (name ^ ": result value") sr.Core.Runner.value r.Core.Runner.value;
          Alcotest.(check int)
            (name ^ ": mutator refs") sr.Core.Runner.refs r.Core.Runner.refs;
          Alcotest.(check int)
            (name ^ ": collector refs") sr.Core.Runner.collector_refs
            r.Core.Runner.collector_refs;
          Alcotest.(check bool)
            (name ^ ": recording bit-identical") true
            (Memsim.Recording.equal srec recording);
          Memsim.Recording.release recording)
        serial)
    [ 1; 2; 4 ]

let () =
  Alcotest.run "trace fast path"
    [ ( "direct = sink",
        List.map
          (fun w ->
            Alcotest.test_case w.Workloads.Workload.name `Slow
              (test_fast_path w))
          Workloads.Workload.all );
      ( "record-then-replay",
        List.map
          (fun w ->
            Alcotest.test_case w.Workloads.Workload.name `Slow
              (test_record_then_replay w))
          Workloads.Workload.all );
      ( "sharded producer",
        [ Alcotest.test_case "record_grid = serial, jobs 1/2/4" `Slow
            test_record_grid
        ] );
      ( "formats",
        Alcotest.test_case "v1 -> v2 -> v3 round trip on a real trace" `Slow
          test_format_roundtrip
        :: List.map
             (fun w ->
               Alcotest.test_case
                 ("mmap = heap load, " ^ w.Workloads.Workload.name)
                 `Slow (test_mmap_vs_heap w))
             Workloads.Workload.all )
    ]
