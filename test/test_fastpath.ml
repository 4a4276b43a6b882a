(* Differential tests for the trace fast path and record-then-replay.

   For every workload, the direct writer (Mem.record_into) must
   produce a recording bit-identical to the generic closure sink, with
   the same result value and per-phase reference counts; and
   Exp_gc.measure — the path every experiment driver takes — must
   yield per-cache statistics bit-identical to the per-event oracle
   over the sink-path recording, with one job and with several.
   `make check` runs this binary under REPRO_JOBS=2 as well. *)

let grid () =
  Memsim.Sweep.create
    (Memsim.Sweep.grid
       ~cache_sizes:[ Memsim.Sweep.kb 32; Memsim.Sweep.kb 256 ]
       ~block_sizes:[ 32; 128 ] ())

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

(* The experiments' path: Exp_gc.measure leases the run from the
   trace memo and replays it into the grid, at one job and at several;
   the trace it kept is the sink path's. *)
let test_record_then_replay w () =
  let _, recording = Core.Runner.record ~direct:false ~scale:1 w in
  let oracle = grid () in
  Memsim.Recording.replay recording (Memsim.Sweep.sink oracle);
  let configs =
    List.map
      (fun (c, _) -> Memsim.Hier.config ~levels:[ c ] ())
      (Memsim.Sweep.results oracle)
  in
  List.iter
    (fun jobs ->
      let m = Core.Exp_gc.measure ~jobs ~scale:1 w configs in
      List.iteri
        (fun i (_, (s : Memsim.Cache.stats)) ->
          Alcotest.(check bool)
            (Printf.sprintf "measure jobs=%d cell %d: stats bit-identical"
               jobs i)
            true
            (s = m.Core.Exp_gc.hiers.(i).Core.Exp_gc.levels.(0)))
        (Memsim.Sweep.results oracle);
      Core.Runner.with_lease ~scale:1 w (fun _ leased ->
          Alcotest.(check bool)
            (Printf.sprintf "recording = sink-path recording, jobs=%d" jobs)
            true
            (Memsim.Recording.equal recording leased)))
    [ 1; 3 ];
  Memsim.Recording.release recording

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
