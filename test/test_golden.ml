(* The golden-run regression subsystem:

   - manifests and fixtures round-trip through their sexp files;
   - the comparator is clean against itself and localizes every kind of
     perturbation (exact count, derived ratio, grid geometry, manifest
     drift) as a distinct finding;
   - checkpoint/resume: a sweep killed after any checkpoint and resumed
     in a fresh process state finishes bit-identical to an
     uninterrupted run, serial and parallel, and stale or foreign
     checkpoints are rejected rather than silently replayed over. *)

let tmp_file =
  let n = ref 0 in
  fun suffix ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "test_golden_%d_%d%s" (Unix.getpid ()) !n suffix)

let with_tmp suffix f =
  let path = tmp_file suffix in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let default_run name =
  List.find
    (fun (r : Golden.Manifest.run) -> String.equal r.name name)
    Golden.Manifest.default.Golden.Manifest.runs

let smoke_run = default_run "prover"

(* --- Manifest / fixture serialization ----------------------------------- *)

let test_manifest_roundtrip () =
  with_tmp ".sexp" (fun path ->
      Golden.Manifest.(save default path);
      let back = Golden.Manifest.load path in
      Alcotest.(check bool) "manifest survives its file" true
        (back = Golden.Manifest.default))

let test_manifest_rejects_bad_version () =
  with_tmp ".sexp" (fun path ->
      let oc = open_out path in
      output_string oc "(golden-manifest (version 999) (runs))";
      close_out oc;
      match Golden.Manifest.load path with
      | exception Golden.Sx.Parse_error msg ->
        Alcotest.(check bool) "diagnostic names the version" true
          (contains msg "999")
      | _ -> Alcotest.fail "expected Parse_error")

let test_manifest_rejects_garbage () =
  with_tmp ".sexp" (fun path ->
      let oc = open_out path in
      output_string oc "(elephant 7)";
      close_out oc;
      (match Golden.Manifest.load path with
       | exception Golden.Sx.Parse_error _ -> ()
       | _ -> Alcotest.fail "expected Parse_error");
      (match Golden.Manifest.load (path ^ ".does-not-exist") with
       | exception Golden.Sx.Parse_error _ -> ()
       | _ -> Alcotest.fail "expected Parse_error for a missing file");
      (* Nothing writes v1 traces any more, so a manifest cannot ask
         for one. *)
      Golden.Manifest.(save default path);
      let text = In_channel.with_open_bin path In_channel.input_all in
      let v2 = {|(format "v2")|} in
      let n = String.length v2 in
      let rec at i = if String.sub text i n = v2 then i else at (i + 1) in
      let i = at 0 in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (String.sub text 0 i ^ {|(format "v1")|}
             ^ String.sub text (i + n) (String.length text - i - n)));
      match Golden.Manifest.load path with
      | exception Golden.Sx.Parse_error msg ->
        Alcotest.(check bool) ("v1 rejected: " ^ msg) true
          (contains msg {|unknown trace format "v1"|})
      | _ -> Alcotest.fail "expected Parse_error for a v1 manifest")

let measured = lazy (Golden.Fixture.measure smoke_run)

let test_fixture_roundtrip () =
  let fx = Lazy.force measured in
  with_tmp ".sexp" (fun path ->
      Golden.Fixture.save fx path;
      let back = Golden.Fixture.load path in
      Alcotest.(check bool) "fixture survives its file" true (back = fx))

(* Measuring leases each trace from the trace memo, and a production
   that finds the free list empty evicts a kept trace and records into
   its slabs, so a second measurement in the same process either
   replays a kept trace or records into slabs earlier runs wrote.
   Stale slab contents must be invisible: every measurement, first or
   pooled, compares clean against the committed fixture. *)
let test_pooled_remeasure () =
  (* dune runs the test from _build/default/test; by hand it may run
     from the repository root. *)
  let committed_dir = List.find Sys.file_exists [ "../golden"; "golden" ] in
  let runs = List.map default_run [ "nbody"; "prover" ] in
  List.iter
    (fun round ->
      List.iter
        (fun (r : Golden.Manifest.run) ->
          let name = r.Golden.Manifest.name in
          let expected =
            Golden.Fixture.load (Golden.Suite.fixture_path ~dir:committed_dir name)
          in
          let fs =
            Golden.Fixture.compare ~file:name ~expected
              ~actual:(Golden.Fixture.measure r) ()
          in
          List.iter (fun f -> Format.printf "%a@." Check.Finding.pp f) fs;
          Alcotest.(check int)
            (Printf.sprintf "%s, %s measurement: no findings" name round)
            0 (List.length fs))
        runs)
    [ "first"; "pooled" ]

(* A measurement that fails leaves its trace unpinned: a serve job
   with a cache geometry [Level.create] refuses, and one killed by
   raising out of [progress] mid-replay. *)
let test_failed_measure_unpins () =
  let run =
    { smoke_run with Golden.Manifest.scale = 1; heap_bytes = Some 3_000_000 }
  in
  (match
     Golden.Fixture.measure
       { run with Golden.Manifest.cache_sizes = [ 48_000 ] }
   with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "expected Invalid_argument for a 48000-byte cache");
  Alcotest.(check bool) "bad geometry: no trace pinned" true
    (Kept_probe.no_trace_pinned ());
  let module Killed = struct exception E end in
  with_tmp ".ckpt" (fun ck ->
      match
        Golden.Fixture.measure ~checkpoint:ck ~checkpoint_every:1_000
          ~progress:(fun cursor -> if cursor > 0 then raise Killed.E)
          run
      with
      | exception Killed.E -> ()
      | _ -> Alcotest.fail "expected the progress callback to kill the run");
  Alcotest.(check bool) "killed replay: no trace pinned" true
    (Kept_probe.no_trace_pinned ())

(* --- Comparator ---------------------------------------------------------- *)

let rules fs = List.map (fun f -> f.Check.Finding.rule) fs

let test_compare_self_clean () =
  let fx = Lazy.force measured in
  Alcotest.(check (list string)) "no findings against itself" []
    (rules (Golden.Fixture.compare ~file:"f" ~expected:fx ~actual:fx ()))

let test_compare_localizes_count () =
  let fx = Lazy.force measured in
  let perturbed = { fx with Golden.Fixture.collections = fx.collections + 1 } in
  let fs = Golden.Fixture.compare ~file:"f" ~expected:perturbed ~actual:fx () in
  Alcotest.(check (list string)) "one exact-count finding" [ "golden.count" ]
    (rules fs);
  let msg = (List.hd fs).Check.Finding.message in
  Alcotest.(check bool) "message names the field" true
    (contains msg "collections")

let test_compare_localizes_cache_counter () =
  let fx = Lazy.force measured in
  let bump = function
    | ({ Golden.Fixture.stats; _ } as c) :: rest ->
      { c with Golden.Fixture.stats =
          { stats with Memsim.Cache.misses = stats.Memsim.Cache.misses + 1 } }
      :: rest
    | [] -> assert false
  in
  let perturbed = { fx with Golden.Fixture.caches = bump fx.caches } in
  let fs = Golden.Fixture.compare ~file:"f" ~expected:perturbed ~actual:fx () in
  Alcotest.(check bool) "golden.count reported" true
    (List.mem "golden.count" (rules fs))

let test_compare_ratio_band () =
  let fx = Lazy.force measured in
  let nudge eps = function
    | ({ Golden.Fixture.miss_ratio; _ } as c) :: rest ->
      { c with Golden.Fixture.miss_ratio = miss_ratio *. (1.0 +. eps) } :: rest
    | [] -> assert false
  in
  (* inside the band: a last-ulp reformulation is not a regression *)
  let close = { fx with Golden.Fixture.caches = nudge 1e-12 fx.caches } in
  Alcotest.(check (list string)) "inside the band" []
    (rules (Golden.Fixture.compare ~file:"f" ~expected:close ~actual:fx ()));
  (* outside: flagged as a ratio drift *)
  let far = { fx with Golden.Fixture.caches = nudge 1e-6 fx.caches } in
  let fs = Golden.Fixture.compare ~file:"f" ~expected:far ~actual:fx () in
  Alcotest.(check bool) "golden.ratio reported" true
    (List.mem "golden.ratio" (rules fs))

let test_compare_grid_mismatch () =
  let fx = Lazy.force measured in
  let expected =
    match fx.Golden.Fixture.caches with
    | c :: rest ->
      { fx with
        Golden.Fixture.caches =
          { c with Golden.Fixture.size_bytes = c.Golden.Fixture.size_bytes * 2 }
          :: rest
      }
    | [] -> assert false
  in
  let fs = Golden.Fixture.compare ~file:"f" ~expected ~actual:fx () in
  Alcotest.(check bool) "golden.grid reported" true
    (List.mem "golden.grid" (rules fs))

let test_compare_run_drift () =
  let fx = Lazy.force measured in
  let expected =
    { fx with
      Golden.Fixture.run = { fx.Golden.Fixture.run with Golden.Manifest.jobs = 7 }
    }
  in
  let fs = Golden.Fixture.compare ~file:"f" ~expected ~actual:fx () in
  Alcotest.(check bool) "golden.run reported" true
    (List.mem "golden.run" (rules fs))

(* --- Checkpoint / resume ------------------------------------------------- *)

let mk_recording n =
  let rec_ = Memsim.Recording.create ~initial_capacity:64 () in
  let sink = Memsim.Recording.sink rec_ in
  let st = Random.State.make [| n; 0x60 |] in
  for _ = 1 to n do
    let addr = Random.State.int st 16384 * 4 in
    let kind =
      match Random.State.int st 3 with
      | 0 -> Memsim.Trace.Read
      | 1 -> Memsim.Trace.Write
      | _ -> Memsim.Trace.Alloc_write
    in
    let phase =
      if Random.State.int st 5 = 0 then Memsim.Trace.Collector
      else Memsim.Trace.Mutator
    in
    sink.Memsim.Trace.access addr kind phase
  done;
  rec_

let grid_configs =
  Memsim.Sweep.grid
    ~cache_sizes:[ 4096; 16384 ] ~block_sizes:[ 32; 64 ] ()

let sweep_results sweep =
  List.map (fun (_, s) -> s) (Memsim.Sweep.results sweep)

exception Killed

(* Replay with a checkpoint every [every] events, raising Killed from
   the progress callback after [kill_after] checkpoints — then resume
   with a fresh sweep (fresh process state) until it completes.  The
   final statistics must be bit-identical to an uninterrupted serial
   run, however often it died. *)
let run_with_kills ~jobs ~every ~kill_after recording =
  with_tmp ".ckpt" (fun ck ->
      let finished = ref None in
      while !finished = None do
        let sweep = Memsim.Sweep.create grid_configs in
        let seen = ref 0 in
        let progress cursor =
          incr seen;
          if !seen > kill_after && cursor < Memsim.Recording.length recording
          then raise Killed
        in
        match
          Memsim.Sweep.hier_run_resumable ~jobs ~checkpoint_every:every ~progress
            ~checkpoint:ck (Memsim.Sweep.hiers sweep) recording
        with
        | () -> finished := Some (sweep_results sweep)
        | exception Killed -> ()
      done;
      Option.get !finished)

let test_resume_equals_uninterrupted () =
  let recording = mk_recording 50_000 in
  let oracle = Memsim.Sweep.create grid_configs in
  Memsim.Sweep.hier_run_serial (Memsim.Sweep.hiers oracle) recording;
  let expected = sweep_results oracle in
  List.iter
    (fun (jobs, kill_after) ->
      let got = run_with_kills ~jobs ~every:7_000 ~kill_after recording in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d killed-after=%d = uninterrupted" jobs
           kill_after)
        true (got = expected))
    [ (1, 1); (1, 3); (2, 1); (4, 2) ]

let test_resume_without_interruption () =
  let recording = mk_recording 10_000 in
  let oracle = Memsim.Sweep.create grid_configs in
  Memsim.Sweep.hier_run_serial (Memsim.Sweep.hiers oracle) recording;
  with_tmp ".ckpt" (fun ck ->
      let sweep = Memsim.Sweep.create grid_configs in
      Memsim.Sweep.hier_run_resumable ~checkpoint_every:3_000 ~checkpoint:ck (Memsim.Sweep.hiers sweep) recording;
      Alcotest.(check bool) "single pass = serial" true
        (sweep_results sweep = sweep_results oracle);
      (* the final checkpoint is on disk at cursor = length: running
         again restores and replays nothing, same statistics *)
      let again = Memsim.Sweep.create grid_configs in
      Memsim.Sweep.hier_run_resumable ~checkpoint_every:3_000 ~checkpoint:ck
        (Memsim.Sweep.hiers again) recording;
      Alcotest.(check bool) "idempotent second pass" true
        (sweep_results again = sweep_results oracle))

let test_checkpoint_rejects_stale () =
  let recording = mk_recording 5_000 in
  with_tmp ".ckpt" (fun ck ->
      let sweep = Memsim.Sweep.create grid_configs in
      Memsim.Sweep.save_hier_checkpoint (Memsim.Sweep.hiers sweep) ~events:5_000 ~cursor:1_000 ck;
      (* a recording of a different length *)
      (match Memsim.Sweep.load_hier_checkpoint (Memsim.Sweep.hiers sweep) ~events:4_999 ck with
       | exception Failure _ -> ()
       | _ -> Alcotest.fail "expected Failure for a stale checkpoint");
      (* a sweep with a different grid *)
      let other =
        Memsim.Sweep.create
          (Memsim.Sweep.grid ~cache_sizes:[ 8192 ] ~block_sizes:[ 32 ] ())
      in
      (match Memsim.Sweep.load_hier_checkpoint (Memsim.Sweep.hiers other) ~events:5_000 ck with
       | exception Failure _ -> ()
       | _ -> Alcotest.fail "expected Failure for a foreign grid");
      (* a grid checkpoint in the retired format: a located loader
         error naming the file, never a crash *)
      let oc = open_out_bin ck in
      output_string oc "SWPCKPT1";
      output_string oc (String.make 24 '\000');
      close_out oc;
      (match
         Memsim.Sweep.hier_run_resumable ~checkpoint:ck
           (Memsim.Sweep.hiers sweep) recording
       with
       | exception Failure msg ->
         Alcotest.(check bool)
           (Printf.sprintf "retired format located: %s" msg)
           true
           (contains msg ck
            && contains msg "is not a hierarchy checkpoint")
       | _ -> Alcotest.fail "expected Failure for a retired grid checkpoint");
      (* not a checkpoint at all *)
      let oc = open_out ck in
      output_string oc "junk";
      close_out oc;
      match
        Memsim.Sweep.hier_run_resumable ~checkpoint:ck (Memsim.Sweep.hiers sweep) recording
      with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "expected Failure for a corrupt checkpoint")

(* --- Suite plumbing ------------------------------------------------------ *)

let test_suite_record_verify_cycle () =
  let dir = tmp_file "" in
  let tiny =
    { Golden.Manifest.version = Golden.Manifest.current_version;
      runs = [ { smoke_run with Golden.Manifest.name = "tiny" } ]
    }
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () ->
      let null = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ()) in
      Golden.Suite.record ~manifest:tiny ~dir null;
      let vs = Golden.Suite.verify ~dir null in
      Alcotest.(check int) "one run verified" 1 (List.length vs);
      Alcotest.(check bool) "clean against itself" true
        (List.for_all Golden.Suite.passed vs);
      (* perturb the committed fixture: verify must fail and say where *)
      let path = Golden.Suite.fixture_path ~dir "tiny" in
      let fx = Golden.Fixture.load path in
      Golden.Fixture.save
        { fx with Golden.Fixture.trace_events = fx.trace_events + 1 }
        path;
      let vs = Golden.Suite.verify ~dir null in
      Alcotest.(check bool) "perturbation caught" true
        (List.exists (fun v -> not (Golden.Suite.passed v)) vs);
      let findings = List.concat_map (fun v -> v.Golden.Suite.findings) vs in
      Alcotest.(check bool) "located to the count" true
        (List.exists (fun f -> f.Check.Finding.rule = "golden.count") findings))

let () =
  Alcotest.run "golden"
    [ ( "manifest",
        [ Alcotest.test_case "roundtrip" `Quick test_manifest_roundtrip;
          Alcotest.test_case "bad version rejected" `Quick
            test_manifest_rejects_bad_version;
          Alcotest.test_case "garbage rejected" `Quick
            test_manifest_rejects_garbage
        ] );
      ( "fixture",
        [ Alcotest.test_case "roundtrip" `Quick test_fixture_roundtrip;
          Alcotest.test_case "self-compare is clean" `Quick
            test_compare_self_clean;
          Alcotest.test_case "count perturbation located" `Quick
            test_compare_localizes_count;
          Alcotest.test_case "cache counter perturbation located" `Quick
            test_compare_localizes_cache_counter;
          Alcotest.test_case "ratio tolerance band" `Quick
            test_compare_ratio_band;
          Alcotest.test_case "grid mismatch located" `Quick
            test_compare_grid_mismatch;
          Alcotest.test_case "manifest drift located" `Quick
            test_compare_run_drift;
          Alcotest.test_case "pooled re-measure = committed" `Quick
            test_pooled_remeasure;
          Alcotest.test_case "failed measure leaves no trace pinned" `Quick
            test_failed_measure_unpins
        ] );
      ( "checkpoint",
        [ Alcotest.test_case "kill-and-resume = uninterrupted" `Quick
            test_resume_equals_uninterrupted;
          Alcotest.test_case "uninterrupted and idempotent" `Quick
            test_resume_without_interruption;
          Alcotest.test_case "stale/foreign checkpoints rejected" `Quick
            test_checkpoint_rejects_stale
        ] );
      ( "suite",
        [ Alcotest.test_case "record/verify/perturb cycle" `Quick
            test_suite_record_verify_cycle
        ] )
    ]
