(* The serve daemon's moving parts, without sockets:

   - manifest content hashing is canonical (field order, whitespace
     and label/provenance fields cannot move it; every
     number-determining field does), and the committed smoke-suite
     hashes are pinned;
   - the scheduler serves repeat submissions from the result cache and
     piggybacks in-flight duplicates, asserted by its counters, and a
     4-worker pool fed N submissions over d distinct grids completes N
     with exactly N - d cache hits;
   - a daemon answers hits from its in-memory result index (a stored
     file garbled under it changes nothing), a restarted daemon reads
     the spool again (a garbled file is a miss, a sound one serves the
     same bytes), and the parse memo never maps a text to another
     text's content hash;
   - the kill-and-resume differential proof: a job whose worker dies
     mid-sweep resumes from its checkpoint and finishes bit-identical
     to an uninterrupted measurement, with one worker and with a
     2-worker pool;
   - the latency histogram resolves a sub-millisecond cache hit;
   - malformed manifests are structured errors, never crashes, and
     execution failures carry the job id and manifest name;
   - cancelling a queued leader promotes its in-flight follower, and
     cancelling a running job stops it at its next progress tick and
     removes its checkpoint;
   - fresh jobs recycle the trace memory earlier jobs released, so the
     resident set stays flat;
   - journal recovery re-enqueues what a killed daemon left behind
     (skipping the torn final line) and continues the id sequence;
   - the wire protocol round-trips and rejects oversized or garbage
     frames, and structure-aware frame mutations get the documented
     [Error], never an exception;
   - Serve_check accepts a healthy spool and localizes corrupt
     journals, impossible event orders and store-layout violations. *)

let tmp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let path =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "test_serve_%d_%d" (Unix.getpid ()) !n)
    in
    path

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

let with_spool f =
  let dir = tmp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

let default_run name =
  List.find
    (fun (r : Golden.Manifest.run) -> String.equal r.name name)
    Golden.Manifest.default.Golden.Manifest.runs

let base_run = default_run "selfcomp"

(* A one-config grid over the smallest smoke workload: cheap enough to
   sweep many times in this file, with enough events (~800k) that a
   50k-event checkpoint cadence yields several epochs to kill inside. *)
let small_run ?(name = "small") ?(cache = 65536) ?(block = 32) () =
  { base_run with
    Golden.Manifest.name;
    cache_sizes = [ cache ];
    block_sizes = [ block ];
    jobs = 1
  }

let run_text r = Sexp.Datum.to_string (Golden.Manifest.run_to_datum r)

let findings_errors fs = List.length (Check.Finding.errors fs)

let has_rule rule fs =
  List.exists (fun f -> f.Check.Finding.rule = rule) fs

(* --- Content hashing ----------------------------------------------------- *)

let test_hash_canonical () =
  let r = small_run () in
  let h = Golden.Manifest.content_hash r in
  (* The same logical run, written with scrambled field order and
     whitespace, parses to the same hash. *)
  let scrambled =
    Printf.sprintf
      "(run   (format \"v2\")\n  (policy \"write-validate\")\n\
      \  (block-sizes 32) (cache-sizes 65536)\n\
      \  (gc \"cheney:48k\") (scale 1) (workload \"selfcomp\") (jobs 1)\n\
      \  (name \"small\"))"
  in
  let r2 =
    Golden.Manifest.run_of_datum ~file:"<test>"
      (Sexp.Parser.parse_one scrambled)
  in
  Alcotest.(check string) "field order and whitespace are invisible" h
    (Golden.Manifest.content_hash r2)

let test_hash_ignores_label_fields () =
  let r = small_run () in
  let h = Golden.Manifest.content_hash r in
  Alcotest.(check string) "name is a label" h
    (Golden.Manifest.content_hash { r with Golden.Manifest.name = "other" });
  Alcotest.(check string) "jobs is provenance" h
    (Golden.Manifest.content_hash { r with Golden.Manifest.jobs = 7 })

let test_hash_sensitive_to_content () =
  let r = small_run () in
  let h = Golden.Manifest.content_hash r in
  let variants =
    [ ("workload", { r with Golden.Manifest.workload = "prover" });
      ("scale", { r with Golden.Manifest.scale = 2 });
      ("gc", { r with Golden.Manifest.gc = Vscheme.Machine.No_gc });
      ("heap", { r with Golden.Manifest.heap_bytes = Some (1 lsl 24) });
      ("cache-sizes", { r with Golden.Manifest.cache_sizes = [ 131072 ] });
      ("block-sizes", { r with Golden.Manifest.block_sizes = [ 64 ] });
      ( "policy",
        { r with
          Golden.Manifest.write_miss_policy = Memsim.Cache.Fetch_on_write
        } );
      ("format", { r with Golden.Manifest.trace_format = Memsim.Recording.V3 })
    ]
  in
  let hashes =
    List.map
      (fun (field, v) ->
        let hv = Golden.Manifest.content_hash v in
        Alcotest.(check bool)
          (Printf.sprintf "perturbing %s moves the hash" field)
          true (hv <> h);
        hv)
      variants
  in
  let distinct = List.sort_uniq String.compare (h :: hashes) in
  Alcotest.(check int) "all perturbations distinct"
    (List.length hashes + 1)
    (List.length distinct)

(* Pinned hashes of the committed smoke suite: if one of these moves,
   every cached result keyed by it is orphaned — regenerating the
   stores must be a deliberate act, like regenerating fixtures. *)
let test_hash_pinned () =
  let pinned =
    [ ("selfcomp", "204b6bb6e131928e510bf00999af16ae");
      ("prover", "c4d91b27ad507cce4533757cb4734136");
      ("lred", "2804bff46333f7820648336eb7d00206");
      ("nbody", "860c20d24943158a1e5e00ea1ba02f51");
      ("mexpr", "bb54fa790e76bfe46970289069ac5529");
      ("nbody-nogc", "72aaa944cf3ac42b16dfd51daf1d3cc2");
      ("nbody-cfl-hier", "b34d6b340c92596ec8f7e7b4026e61f3")
    ]
  in
  List.iter
    (fun (r : Golden.Manifest.run) ->
      match List.assoc_opt r.Golden.Manifest.name pinned with
      | Some h ->
        Alcotest.(check string)
          (r.Golden.Manifest.name ^ " hash pinned")
          h
          (Golden.Manifest.content_hash r)
      | None ->
        Alcotest.fail
          ("unpinned run in the default manifest: " ^ r.Golden.Manifest.name))
    Golden.Manifest.default.Golden.Manifest.runs

(* --- Scheduler: cache and dedup ------------------------------------------ *)

let quiet_config workers =
  { Serve.Sched.default_config with Serve.Sched.workers }

let submit_ok sched r =
  match Serve.Sched.submit sched (run_text r) with
  | Ok id -> id
  | Error msg -> Alcotest.fail ("submit failed: " ^ msg)

let test_repeat_submission_cached () =
  with_spool (fun dir ->
      let sched = Serve.Sched.create ~config:(quiet_config 1) dir in
      let r = small_run () in
      let id1 = submit_ok sched r in
      Serve.Sched.drain sched;
      let id2 = submit_ok sched r in
      Serve.Sched.drain sched;
      Alcotest.(check int) "ids distinct" (id1 + 1) id2;
      Alcotest.(check int) "both completed" 2
        (Serve.Sched.counter_value sched "completed");
      Alcotest.(check int) "exactly one cache hit" 1
        (Serve.Sched.counter_value sched "cache_hits");
      (match Serve.Sched.job_json sched id2 with
       | Ok json ->
         Alcotest.(check bool) "second job marked cached" true
           (Obs.Json.member "cached" json = Some (Obs.Json.Bool true))
       | Error msg -> Alcotest.fail msg);
      Serve.Sched.shutdown sched)

let test_inflight_duplicate_piggybacks () =
  with_spool (fun dir ->
      (* The hold hook slows the leader's sweep so the duplicate is
         submitted while it is still running. *)
      let config =
        { (quiet_config 1) with
          Serve.Sched.kill =
            Some
              (fun _ _ ->
                Unix.sleepf 0.01;
                false)
        }
      in
      let sched = Serve.Sched.create ~config dir in
      let r = small_run () in
      let _id1 = submit_ok sched r in
      let id2 = submit_ok sched r in
      Serve.Sched.drain sched;
      Alcotest.(check int) "both completed" 2
        (Serve.Sched.counter_value sched "completed");
      Alcotest.(check int) "duplicate answered without a second sweep" 1
        (Serve.Sched.counter_value sched "cache_hits");
      (match Serve.Sched.job_json sched id2 with
       | Ok json ->
         Alcotest.(check bool) "follower marked cached" true
           (Obs.Json.member "cached" json = Some (Obs.Json.Bool true))
       | Error msg -> Alcotest.fail msg);
      Serve.Sched.shutdown sched)

(* N submissions over d distinct grids through a 4-worker pool: the
   first wave arrives all at once, so duplicates race the leaders on
   other workers and piggyback or hit the worker-side lookup; the
   second wave lands after the drain and is answered at submit time.
   However the race goes, each distinct grid is swept exactly once. *)
let test_pool_dedup_exact () =
  with_spool (fun dir ->
      let sched = Serve.Sched.create ~config:(quiet_config 4) dir in
      let distinct = 5 and per_wave = 15 in
      let caches = [| 16384; 32768; 65536; 131072; 262144 |] in
      let submit i =
        ignore
          (submit_ok sched
             (small_run
                ~name:(Printf.sprintf "pool-%02d" i)
                ~cache:caches.(i mod distinct) ()))
      in
      for i = 0 to per_wave - 1 do
        submit i
      done;
      Serve.Sched.drain sched;
      for i = per_wave to (2 * per_wave) - 1 do
        submit i
      done;
      Serve.Sched.drain sched;
      let total = 2 * per_wave in
      Alcotest.(check int) "completed = N" total
        (Serve.Sched.counter_value sched "completed");
      Alcotest.(check int) "cache hits = N - d" (total - distinct)
        (Serve.Sched.counter_value sched "cache_hits");
      Serve.Sched.shutdown sched)

(* --- Scheduler: the result index and the parse memo ----------------------- *)

let stored_result sched id =
  match Serve.Sched.result sched id with
  | Ok stored -> stored
  | Error msg -> Alcotest.fail msg

let job_cached sched id =
  match Serve.Sched.job_json sched id with
  | Ok json -> Obs.Json.member "cached" json = Some (Obs.Json.Bool true)
  | Error msg -> Alcotest.fail msg

let job_hash sched id =
  match Serve.Sched.job_json sched id with
  | Ok json -> (
    match Obs.Json.member "hash" json with
    | Some (Obs.Json.Str h) -> h
    | Some _ | None -> Alcotest.fail "job snapshot without a hash")
  | Error msg -> Alcotest.fail msg

let result_file dir r =
  Filename.concat dir
    (Filename.concat "results" (Golden.Manifest.content_hash r ^ ".sexp"))

(* The reply text a hit got before results were indexed: the stored
   file, loaded and printed. *)
let text_from_disk dir r =
  Sexp.Datum.to_string
    (Golden.Fixture.to_datum (Golden.Fixture.load (result_file dir r)))

let overwrite path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

(* Measure [r] on a fresh daemon, then overwrite its stored file with
   garbage.  Returns the result text the daemon served before. *)
let stored_then_garbled dir r =
  let sched = Serve.Sched.create ~config:(quiet_config 1) dir in
  let id1 = submit_ok sched r in
  Serve.Sched.drain sched;
  let from_disk = text_from_disk dir r in
  let measured = stored_result sched id1 in
  Alcotest.(check string) "measured result text = the stored file's" from_disk
    measured.Serve.Store.text;
  overwrite (result_file dir r) "garbage (((";
  (sched, id1, measured)

(* Stored results are immutable: once a daemon has a result, a repeat
   submission is answered from its index, not from the file. *)
let test_hit_from_index () =
  with_spool (fun dir ->
      let r = small_run () in
      let sched, _, measured = stored_then_garbled dir r in
      let id2 = submit_ok sched r in
      Serve.Sched.drain sched;
      Alcotest.(check int) "repeat is a cache hit" 1
        (Serve.Sched.counter_value sched "cache_hits");
      Alcotest.(check bool) "repeat marked cached" true (job_cached sched id2);
      let served = stored_result sched id2 in
      Alcotest.(check string) "result is the measured fixture"
        measured.Serve.Store.text served.Serve.Store.text;
      Alcotest.(check int) "no findings against the measured fixture" 0
        (List.length
           (Golden.Fixture.compare ~file:"index" ~expected:measured.fixture
              ~actual:served.fixture ()));
      Serve.Sched.shutdown sched)

(* A new daemon has no index: the garbage file is a miss, as an
   unreadable result always was, and the run is measured again. *)
let test_restart_rereads_spool () =
  with_spool (fun dir ->
      let r = small_run () in
      let sched, _, measured = stored_then_garbled dir r in
      Serve.Sched.shutdown sched;
      let sched = Serve.Sched.create ~config:(quiet_config 1) dir in
      let id = submit_ok sched r in
      Serve.Sched.drain sched;
      Alcotest.(check int) "garbage file is a miss" 0
        (Serve.Sched.counter_value sched "cache_hits");
      Alcotest.(check bool) "job measured afresh" false (job_cached sched id);
      Alcotest.(check string) "re-measured result rewritten" measured.text
        (text_from_disk dir r);
      Alcotest.(check string) "and served" measured.text
        (stored_result sched id).text;
      Serve.Sched.shutdown sched)

(* A result an earlier daemon stored enters the new daemon's index on
   its first lookup and is served byte for byte as before. *)
let test_restart_serves_stored () =
  with_spool (fun dir ->
      let r = small_run () in
      let sched = Serve.Sched.create ~config:(quiet_config 1) dir in
      let id = submit_ok sched r in
      Serve.Sched.drain sched;
      let before = (stored_result sched id).text in
      Serve.Sched.shutdown sched;
      let sched = Serve.Sched.create ~config:(quiet_config 1) dir in
      let id = submit_ok sched r in
      Serve.Sched.drain sched;
      Alcotest.(check int) "previous daemon's result is a hit" 1
        (Serve.Sched.counter_value sched "cache_hits");
      Alcotest.(check bool) "marked cached" true (job_cached sched id);
      Alcotest.(check string) "Result text byte-identical" before
        (stored_result sched id).text;
      Alcotest.(check string) "and equal to the file's" (text_from_disk dir r)
        (stored_result sched id).text;
      Serve.Sched.shutdown sched)

(* Texts that differ only in label fields share a result; texts whose
   content differs never do, however often each is resubmitted.  [c]
   differs from [a] in one digit-for-digit cache size, so a memo keyed
   on anything coarser than the whole text would confuse them. *)
let test_memo_keys_whole_text () =
  with_spool (fun dir ->
      let sched = Serve.Sched.create ~config:(quiet_config 1) dir in
      let a = small_run ~name:"a" ~cache:65536 () in
      let b =
        { (small_run ~name:"b" ~cache:65536 ()) with Golden.Manifest.jobs = 3 }
      in
      let c = small_run ~name:"a" ~cache:32768 () in
      Alcotest.(check int) "c is as long as a" (String.length (run_text a))
        (String.length (run_text c));
      let submit r =
        let id = submit_ok sched r in
        Serve.Sched.drain sched;
        id
      in
      let round () = List.map submit [ a; b; c ] in
      let first = round () in
      let second = round () in
      Alcotest.(check int) "only a and c are measured" 4
        (Serve.Sched.counter_value sched "cache_hits");
      List.iter2
        (fun r id ->
          Alcotest.(check string)
            (r.Golden.Manifest.name ^ ": job hash is the text's")
            (Golden.Manifest.content_hash r)
            (job_hash sched id))
        [ a; b; c; a; b; c ] (first @ second);
      let text id = (stored_result sched id).Serve.Store.text in
      (match (first, second) with
       | [ a1; b1; c1 ], [ a2; b2; c2 ] ->
         Alcotest.(check string) "a and b share a result" (text a1) (text b1);
         Alcotest.(check bool) "c has its own" true (text a1 <> text c1);
         Alcotest.(check (list string)) "repeats serve the same results"
           [ text a1; text b1; text c1 ]
           [ text a2; text b2; text c2 ]
       | _ -> assert false);
      Serve.Sched.shutdown sched)

(* --- Scheduler: trace memory ------------------------------------------------ *)

let vm_rss_bytes () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        let line = input_line ic in
        match Scanf.sscanf_opt line "VmRSS: %d kB" (fun kb -> kb * 1024) with
        | Some b -> b
        | None -> scan ()
      in
      scan ())

(* Every fresh job records its whole trace (8 bytes per event) and
   keeps it in the slab pool, where the next job's production evicts
   it and records into memory the daemon already holds.  The jobs differ
   only in heap size, so none is a cache hit.  From the second job on,
   the resident set must not grow by as much as one job's recording;
   when each recording waited for the GC's finalizers instead, it grew
   by about that much per job. *)
let test_rss_flat_over_fresh_jobs () =
  if not (Sys.file_exists "/proc/self/status") then Alcotest.skip ();
  with_spool (fun dir ->
      let sched = Serve.Sched.create ~config:(quiet_config 1) dir in
      let nbody = default_run "nbody" in
      let jobs = 6 in
      let events = ref 0 in
      let rss = Array.make (jobs + 1) 0 in
      for i = 1 to jobs do
        let r =
          { nbody with
            Golden.Manifest.name = Printf.sprintf "rss-%d" i;
            heap_bytes = Some ((8 + i) * 1024 * 1024);
            cache_sizes = [ 65536 ];
            block_sizes = [ 32 ];
            jobs = 1
          }
        in
        ignore (submit_ok sched r);
        Serve.Sched.drain sched;
        (match
           Serve.Store.lookup (Serve.Sched.store sched)
             (Golden.Manifest.content_hash r)
         with
         | Some { Serve.Store.fixture; _ } ->
           events := max !events fixture.Golden.Fixture.trace_events
         | None -> Alcotest.fail ("no stored result for " ^ r.Golden.Manifest.name));
        rss.(i) <- vm_rss_bytes ()
      done;
      Alcotest.(check int) "every job ran fresh" 0
        (Serve.Sched.counter_value sched "cache_hits");
      let growth = rss.(jobs) - rss.(2) in
      let recording = 8 * !events in
      Printf.printf "VmRSS after job 2: %d B; after job %d: %d B; one recording: %d B\n"
        rss.(2) jobs rss.(jobs) recording;
      Alcotest.(check bool)
        (Printf.sprintf "RSS growth %d B over jobs 3..%d < one recording (%d B)"
           growth jobs recording)
        true (growth < recording);
      Serve.Sched.shutdown sched)

(* --- Scheduler: kill and resume ------------------------------------------ *)

(* Kill every job's FIRST attempt once it is past [at] events.  The
   attempt gate keeps the resumed attempt alive even though its
   restored cursor is already past the kill point. *)
let kill_first_attempt_at at =
  Some (fun (j : Serve.Job.t) cursor -> j.Serve.Job.attempts = 1 && cursor >= at)

let assert_stored_matches_fresh sched (r : Golden.Manifest.run) =
  let hash = Golden.Manifest.content_hash r in
  match Serve.Store.lookup (Serve.Sched.store sched) hash with
  | None -> Alcotest.fail ("no stored result for " ^ r.Golden.Manifest.name)
  | Some { Serve.Store.fixture = stored; _ } ->
    let fresh = Golden.Fixture.measure r in
    let findings =
      Golden.Fixture.compare ~file:r.Golden.Manifest.name ~expected:fresh
        ~actual:stored ()
    in
    List.iter (fun f -> Format.printf "%a@." Check.Finding.pp f) findings;
    Alcotest.(check int)
      (r.Golden.Manifest.name ^ ": resumed result bit-identical to fresh")
      0
      (findings_errors findings)

let test_kill_resume_serial () =
  with_spool (fun dir ->
      let config =
        { (quiet_config 1) with
          Serve.Sched.checkpoint_every = Some 50_000;
          kill = kill_first_attempt_at 100_000
        }
      in
      let sched = Serve.Sched.create ~config dir in
      let r = small_run () in
      let id = submit_ok sched r in
      Serve.Sched.drain sched;
      Alcotest.(check int) "requeued once" 1
        (Serve.Sched.counter_value sched "requeued");
      Alcotest.(check int) "resumed once" 1
        (Serve.Sched.counter_value sched "resumed");
      (match Serve.Sched.job_json sched id with
       | Ok json ->
         Alcotest.(check bool) "job marked resumed" true
           (Obs.Json.member "resumed" json = Some (Obs.Json.Bool true));
         Alcotest.(check bool) "two attempts" true
           (Obs.Json.member "attempts" json = Some (Obs.Json.Int 2))
       | Error msg -> Alcotest.fail msg);
      assert_stored_matches_fresh sched r;
      Serve.Sched.shutdown sched)

let test_kill_resume_parallel () =
  with_spool (fun dir ->
      let config =
        { (quiet_config 2) with
          Serve.Sched.checkpoint_every = Some 50_000;
          kill = kill_first_attempt_at 100_000
        }
      in
      let sched = Serve.Sched.create ~config dir in
      let runs =
        [ small_run ~name:"a" ~cache:32768 ();
          small_run ~name:"b" ~cache:65536 ();
          small_run ~name:"c" ~cache:131072 ()
        ]
      in
      let _ids = List.map (submit_ok sched) runs in
      Serve.Sched.drain sched;
      Alcotest.(check int) "every job killed once" 3
        (Serve.Sched.counter_value sched "requeued");
      Alcotest.(check int) "every job resumed" 3
        (Serve.Sched.counter_value sched "resumed");
      Alcotest.(check int) "all completed" 3
        (Serve.Sched.counter_value sched "completed");
      List.iter (assert_stored_matches_fresh sched) runs;
      Serve.Sched.shutdown sched)

(* --- Scheduler: errors carry the job --------------------------------------- *)

let test_malformed_submission_is_error () =
  with_spool (fun dir ->
      let sched = Serve.Sched.create ~config:(quiet_config 1) dir in
      (match Serve.Sched.submit sched "(((" with
       | Ok _ -> Alcotest.fail "unterminated sexp accepted"
       | Error msg ->
         Alcotest.(check bool) "parse error is structured" true
           (contains msg "parse" || contains msg "lex"));
      (match Serve.Sched.submit sched "(run (name \"x\"))" with
       | Ok _ -> Alcotest.fail "field-less run accepted"
       | Error msg ->
         Alcotest.(check bool) "missing-field error names the field" true
           (contains msg "workload" || contains msg "missing"));
      (* The scheduler survives: a good job still completes. *)
      let id = submit_ok sched (small_run ()) in
      (match Serve.Sched.wait sched id with
       | Ok json ->
         Alcotest.(check bool) "good job done after bad submissions" true
           (Obs.Json.member "state" json = Some (Obs.Json.Str "done"))
       | Error msg -> Alcotest.fail msg);
      Serve.Sched.shutdown sched)

(* A grid cell no level can be built for is refused at submit, naming
   the manifest field and value, and leaves no trace: the submitted
   counter and the journal are as they were. *)
let test_bad_geometry_refused () =
  with_spool (fun dir ->
      let sched = Serve.Sched.create ~config:(quiet_config 1) dir in
      let journal () =
        let path = Filename.concat dir "journal.jsonl" in
        if Sys.file_exists path then
          In_channel.with_open_bin path In_channel.input_all
        else ""
      in
      let before = journal () in
      List.iter
        (fun (r, field, value) ->
          match Serve.Sched.submit sched (run_text r) with
          | Ok id -> Alcotest.failf "%s %s accepted as job %d" field value id
          | Error msg ->
            Alcotest.(check bool)
              (Printf.sprintf "refusal names %s %s: %s" field value msg)
              true
              (contains msg field && contains msg value))
        [ (small_run ~cache:48000 (), "cache-sizes", "48000");
          (small_run ~block:512 (), "block-sizes", "512") ];
      Alcotest.(check int) "nothing submitted" 0
        (Serve.Sched.counter_value sched "submitted");
      Alcotest.(check string) "journal unchanged" before (journal ());
      Serve.Sched.shutdown sched)

let test_failure_names_job () =
  with_spool (fun dir ->
      let sched = Serve.Sched.create ~config:(quiet_config 1) dir in
      let r = { (small_run ~name:"ghost" ()) with Golden.Manifest.workload = "nosuch" } in
      let id = submit_ok sched r in
      (match Serve.Sched.wait sched id with
       | Ok json ->
         Alcotest.(check bool) "state is failed" true
           (Obs.Json.member "state" json = Some (Obs.Json.Str "failed"));
         (match Obs.Json.member "error" json with
          | Some (Obs.Json.Str msg) ->
            Alcotest.(check bool) "error carries the job id" true
              (contains msg (Printf.sprintf "job %d" id));
            Alcotest.(check bool) "error carries the manifest name" true
              (contains msg "ghost")
          | Some _ | None -> Alcotest.fail "failed job without an error field")
       | Error msg -> Alcotest.fail msg);
      Serve.Sched.shutdown sched)

(* --- Scheduler: cancellation ----------------------------------------------- *)

(* A kill hook that never kills: the first progress tick at a cursor
   of at least [at] parks its worker until [release].  [wait_held]
   blocks until a job is parked, so the test acts while that job is
   known to be running and every later one is known to be queued. *)
type hold = { reached : bool Atomic.t; released : bool Atomic.t }

let hold_at at =
  let h = { reached = Atomic.make false; released = Atomic.make false } in
  let hook _job cursor =
    if cursor >= at && Atomic.compare_and_set h.reached false true then
      while not (Atomic.get h.released) do
        Unix.sleepf 0.001
      done;
    false
  in
  (h, Some hook)

let wait_held h =
  while not (Atomic.get h.reached) do
    Unix.sleepf 0.001
  done

let release h = Atomic.set h.released true

let check_state sched id ~state ~cached =
  match Serve.Sched.job_json sched id with
  | Ok json ->
    Alcotest.(check bool)
      (Printf.sprintf "job %d %s" id state)
      true
      (Obs.Json.member "state" json = Some (Obs.Json.Str state));
    Alcotest.(check bool)
      (Printf.sprintf "job %d cached = %b" id cached)
      true
      (Obs.Json.member "cached" json = Some (Obs.Json.Bool cached))
  | Error msg -> Alcotest.fail msg

let check_spool_clean dir =
  let fs = (Check.Serve_check.scan dir).Check.Serve_check.findings in
  List.iter (fun f -> Format.printf "%a@." Check.Finding.pp f) fs;
  Alcotest.(check int) "spool check finds no errors" 0 (findings_errors fs)

(* One worker, parked on a blocker: a leader and its in-flight
   duplicate wait in the queue.  Cancelling the leader must not take
   the follower with it: the follower is promoted and sweeps itself. *)
let test_cancel_queued_leader () =
  with_spool (fun dir ->
      let h, kill = hold_at 0 in
      let sched =
        Serve.Sched.create ~config:{ (quiet_config 1) with Serve.Sched.kill } dir
      in
      Fun.protect
        ~finally:(fun () -> release h)
        (fun () ->
          let blocker =
            submit_ok sched (small_run ~name:"blocker" ~cache:32768 ())
          in
          wait_held h;
          let r = small_run () in
          let leader = submit_ok sched r in
          let follower = submit_ok sched r in
          (match Serve.Sched.cancel sched leader with
           | Ok status ->
             Alcotest.(check string) "a queued job is cancelled at once"
               "cancelled" status
           | Error msg -> Alcotest.fail msg);
          release h;
          Serve.Sched.drain sched;
          check_state sched blocker ~state:"done" ~cached:false;
          check_state sched leader ~state:"cancelled" ~cached:false;
          check_state sched follower ~state:"done" ~cached:false);
      Alcotest.(check int) "one cancelled" 1
        (Serve.Sched.counter_value sched "cancelled");
      Alcotest.(check int) "blocker and promoted follower completed" 2
        (Serve.Sched.counter_value sched "completed");
      Alcotest.(check int) "no cache hits" 0
        (Serve.Sched.counter_value sched "cache_hits");
      Serve.Sched.shutdown sched;
      check_spool_clean dir)

(* Parked after its first checkpoint epoch, a running job is asked to
   cancel; it stops at its next progress tick and its checkpoint goes
   with it. *)
let test_cancel_running () =
  with_spool (fun dir ->
      let h, kill = hold_at 1 in
      let config =
        { (quiet_config 1) with
          Serve.Sched.checkpoint_every = Some 50_000;
          kill
        }
      in
      let sched = Serve.Sched.create ~config dir in
      Fun.protect
        ~finally:(fun () -> release h)
        (fun () ->
          let id = submit_ok sched (small_run ()) in
          wait_held h;
          let ckpt = Serve.Store.checkpoint_path (Serve.Sched.store sched) ~id in
          Alcotest.(check bool) "epoch checkpoint written" true
            (Sys.file_exists ckpt);
          (match Serve.Sched.cancel sched id with
           | Ok status ->
             Alcotest.(check string) "a running job is asked to stop"
               "cancelling" status
           | Error msg -> Alcotest.fail msg);
          release h;
          Serve.Sched.drain sched;
          check_state sched id ~state:"cancelled" ~cached:false;
          Alcotest.(check bool) "checkpoint removed" false
            (Sys.file_exists ckpt));
      Alcotest.(check int) "one cancelled" 1
        (Serve.Sched.counter_value sched "cancelled");
      Alcotest.(check int) "none completed" 0
        (Serve.Sched.counter_value sched "completed");
      Serve.Sched.shutdown sched;
      check_spool_clean dir)

(* --- Journal recovery ----------------------------------------------------- *)

let write_journal dir events_and_garbage =
  Unix.mkdir dir 0o755;
  let oc = open_out (Filename.concat dir "journal.jsonl") in
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    events_and_garbage;
  close_out oc

let ev fields = Obs.Json.to_string (Obs.Json.Obj fields)

let submitted_event ~id ~t r =
  ev
    [ ("ev", Obs.Json.Str "submitted");
      ("t", Obs.Json.Float t);
      ("job", Obs.Json.Int id);
      ("name", Obs.Json.Str r.Golden.Manifest.name);
      ("hash", Obs.Json.Str (Golden.Manifest.content_hash r));
      ("run", Obs.Json.Str (run_text r))
    ]

let test_journal_recovery () =
  with_spool (fun dir ->
      let a = small_run ~name:"a" ~cache:32768 () in
      let b = small_run ~name:"b" ~cache:65536 () in
      write_journal dir
        [ submitted_event ~id:1 ~t:1.0 a;
          submitted_event ~id:2 ~t:2.0 b;
          ev
            [ ("ev", Obs.Json.Str "started");
              ("t", Obs.Json.Float 3.0);
              ("job", Obs.Json.Int 1);
              ("worker", Obs.Json.Int 0);
              ("attempt", Obs.Json.Int 1);
              ("resumed", Obs.Json.Bool false)
            ];
          "{\"ev\":\"done\",\"t\":4.0,\"jo" (* torn tail of a SIGKILL *)
        ];
      let sched = Serve.Sched.create ~config:(quiet_config 2) dir in
      Serve.Sched.drain sched;
      Alcotest.(check int) "both recovered jobs completed" 2
        (Serve.Sched.counter_value sched "completed");
      (match Serve.Sched.job_json sched 1 with
       | Ok json ->
         Alcotest.(check bool) "job 1 done" true
           (Obs.Json.member "state" json = Some (Obs.Json.Str "done"))
       | Error msg -> Alcotest.fail msg);
      (* The id sequence continues above the journal's maximum. *)
      let id3 = submit_ok sched (small_run ~name:"c" ~cache:131072 ()) in
      Alcotest.(check int) "next id continues from the journal" 3 id3;
      Serve.Sched.drain sched;
      List.iter
        (fun r ->
          Alcotest.(check bool)
            (r.Golden.Manifest.name ^ " result stored")
            true
            (Serve.Store.lookup (Serve.Sched.store sched)
               (Golden.Manifest.content_hash r)
             <> None))
        [ a; b ];
      Serve.Sched.shutdown sched)

(* --- Wire protocol -------------------------------------------------------- *)

let test_proto_roundtrip () =
  List.iter
    (fun req ->
      match Serve.Proto.(request_of_json (request_to_json req)) with
      | Ok back ->
        Alcotest.(check bool) "request round-trips" true (back = req)
      | Error msg -> Alcotest.fail msg)
    [ Serve.Proto.Submit { run_text = "(run (name \"x\"))"; wait = true };
      Serve.Proto.Status 7;
      Serve.Proto.Result 7;
      Serve.Proto.Cancel 7;
      Serve.Proto.Stats;
      Serve.Proto.Shutdown { drain = false };
      Serve.Proto.Ping
    ]

let test_proto_rejects_garbage () =
  (match Serve.Proto.request_of_json (Obs.Json.Obj []) with
   | Ok _ -> Alcotest.fail "op-less request accepted"
   | Error msg -> Alcotest.(check bool) "names op" true (contains msg "op"));
  match
    Serve.Proto.request_of_json
      (Obs.Json.Obj [ ("op", Obs.Json.Str "launch-missiles") ])
  with
  | Ok _ -> Alcotest.fail "unknown op accepted"
  | Error msg ->
    Alcotest.(check bool) "names the op" true (contains msg "launch-missiles")

let test_proto_frames () =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () ->
      let msg = Obs.Json.Obj [ ("hello", Obs.Json.Int 42) ] in
      Serve.Proto.write_frame w msg;
      (match Serve.Proto.read_frame r with
       | Ok back -> Alcotest.(check bool) "frame round-trips" true (back = msg)
       | Error _ -> Alcotest.fail "readable frame rejected");
      (* A length header past the cap is rejected without allocating. *)
      let hdr = Bytes.create 4 in
      Bytes.set_int32_be hdr 0 0x7fffffffl;
      ignore (Unix.write w hdr 0 4);
      (match Serve.Proto.read_frame r with
       | Error (`Error msg) ->
         Alcotest.(check bool) "oversized length named" true
           (contains msg "length")
       | Ok _ | Error `Closed -> Alcotest.fail "oversized frame accepted");
      (* Garbage payload of a valid length is a parse error. *)
      Bytes.set_int32_be hdr 0 3l;
      ignore (Unix.write w hdr 0 4);
      ignore (Unix.write w (Bytes.of_string "%%%") 0 3);
      (match Serve.Proto.read_frame r with
       | Error (`Error msg) ->
         Alcotest.(check bool) "unparseable payload named" true
           (contains msg "unparseable")
       | Ok _ | Error `Closed -> Alcotest.fail "garbage payload accepted");
      (* Clean EOF is `Closed, not an error. *)
      Unix.close w;
      match Serve.Proto.read_frame r with
      | Error `Closed -> ()
      | Ok _ | Error (`Error _) -> Alcotest.fail "EOF not reported as Closed")

(* Structure-aware frame mutators.  A request is encoded as a frame and
   then one of: left intact; its 4-byte length replaced by 0, by a
   length above the 16 MB cap, or by one longer than the bytes sent;
   its body cut short; its "op" replaced by a string that is no op; or
   one field's value replaced by a value of another JSON type.  The
   frame goes through a pipe into [Proto.read_frame] and, if it reads,
   [Proto.request_of_json].  Each must give its documented [Error] and
   never raise; an intact frame must round-trip. *)

let frame_cap = 16 * 1024 * 1024

let gen_request =
  QCheck.Gen.(
    oneof
      [ map2
          (fun run_text wait -> Serve.Proto.Submit { run_text; wait })
          (string_size ~gen:(map Char.chr (int_range 0 255)) (int_bound 48))
          bool;
        map (fun id -> Serve.Proto.Status id) nat;
        map (fun id -> Serve.Proto.Result id) nat;
        map (fun id -> Serve.Proto.Cancel id) nat;
        return Serve.Proto.Stats;
        map (fun drain -> Serve.Proto.Shutdown { drain }) bool;
        return Serve.Proto.Ping ])

type frame_mutation =
  | Intact
  | Zero_length
  | Over_cap of int  (** declared length, above the cap *)
  | Longer of int  (** declared length minus the bytes sent, > 0 *)
  | Cut of int  (** payload bytes sent, fewer than declared *)
  | Op of int  (** which edit of the op string *)
  | Retype of int * int  (** which field, which replacement value *)

let gen_mutation =
  QCheck.Gen.(
    frequency
      [ (1, return Intact);
        (1, return Zero_length);
        ( 1,
          map
            (fun n -> Over_cap n)
            (oneofl [ frame_cap + 1; 0x7fffffff; 0x80000000; 0xffffffff ]) );
        (1, map (fun n -> Longer n) (int_range 1 100_000));
        (1, map (fun n -> Cut n) nat);
        (2, map (fun n -> Op n) nat);
        (2, map2 (fun f v -> Retype (f, v)) nat nat) ])

let known_ops =
  [ "submit"; "status"; "result"; "cancel"; "stats"; "shutdown"; "ping" ]

let edit_op op n =
  let len = String.length op in
  match n mod 4 with
  | 0 -> op ^ String.make 1 (Char.chr (33 + (n / 4 mod 94)))
  | 1 -> String.sub op 0 (n / 4 mod len)
  | 2 -> String.capitalize_ascii op
  | _ ->
    let i = n / 4 mod len in
    String.mapi
      (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c)
      op

(* A value whose JSON type differs from [v]'s.  [Float 0.5] is not an
   integer, so it retypes an integer field too. *)
let retyped v n =
  let kind = function
    | Obs.Json.Null -> 0
    | Obs.Json.Bool _ -> 1
    | Obs.Json.Int _ | Obs.Json.Float _ -> 2
    | Obs.Json.Str _ -> 3
    | Obs.Json.List _ -> 4
    | Obs.Json.Obj _ -> 5
  in
  let others =
    List.filter
      (fun c -> kind c <> kind v)
      Obs.Json.
        [ Null; Bool true; Int 7; Float 0.5; Str "7"; List [ Int 1 ];
          Obj [ ("op", Str "ping") ] ]
  in
  List.nth others (n mod List.length others)

let print_case (req, m) =
  Printf.sprintf "%s with %s"
    (Obs.Json.to_string (Serve.Proto.request_to_json req))
    (match m with
     | Intact -> "no mutation"
     | Zero_length -> "length 0"
     | Over_cap n -> Printf.sprintf "length %d" n
     | Longer n -> Printf.sprintf "length %d past the payload" n
     | Cut n -> Printf.sprintf "payload cut (seed %d)" n
     | Op n -> Printf.sprintf "op edit %d" n
     | Retype (f, v) -> Printf.sprintf "field %d retyped (%d)" f v)

let with_pipe f =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () -> f r w)

(* Send [header] (a declared length) and [payload] down a pipe, close
   it, and read one frame back. *)
let read_sent ?header payload =
  with_pipe (fun r w ->
      let len = Option.value header ~default:(String.length payload) in
      let hdr = Bytes.create 4 in
      Bytes.set_int32_be hdr 0 (Int32.of_int len);
      ignore (Unix.write w hdr 0 4);
      ignore (Unix.write_substring w payload 0 (String.length payload));
      Unix.close w;
      Serve.Proto.read_frame r)

let prop_mutated_frames =
  QCheck.Test.make ~count:1000
    ~name:"mutated frames refused, never raise"
    (QCheck.make ~print:print_case QCheck.Gen.(pair gen_request gen_mutation))
    (fun (req, m) ->
      let json = Serve.Proto.request_to_json req in
      let fields = match json with Obs.Json.Obj fs -> fs | _ -> [] in
      let payload = Obs.Json.to_string json in
      let closed = function
        | Error `Closed -> true
        | Ok _ | Error (`Error _) -> false
      in
      let error_naming needle = function
        | Error (`Error msg) -> contains msg needle
        | Ok _ | Error `Closed -> false
      in
      (* the frame reads, and the request is refused *)
      let refused frame needle =
        match read_sent (Obs.Json.to_string frame) with
        | Ok back -> (
          match Serve.Proto.request_of_json back with
          | Error msg -> contains msg needle
          | Ok _ -> false)
        | Error _ -> false
      in
      match m with
      | Intact ->
        with_pipe (fun r w ->
            Serve.Proto.write_frame w json;
            match Serve.Proto.read_frame r with
            | Ok back -> Serve.Proto.request_of_json back = Ok req
            | Error _ -> false)
      | Zero_length -> error_naming "unparseable" (read_sent ~header:0 "")
      | Over_cap n -> error_naming "length" (read_sent ~header:n payload)
      | Longer n ->
        let header = String.length payload + n in
        closed (read_sent ~header payload)
      | Cut n ->
        let sent = n mod String.length payload in
        closed
          (read_sent ~header:(String.length payload)
             (String.sub payload 0 sent))
      | Op n ->
        let op =
          match List.assoc_opt "op" fields with
          | Some (Obs.Json.Str op) -> op
          | _ -> ""
        in
        let op' = edit_op op n in
        QCheck.assume (not (List.mem op' known_ops));
        refused
          (Obs.Json.Obj
             (List.map
                (fun (k, v) ->
                  if k = "op" then (k, Obs.Json.Str op') else (k, v))
                fields))
          "unknown op"
      | Retype (f, v) ->
        let f = f mod List.length fields in
        let name = fst (List.nth fields f) in
        refused
          (Obs.Json.Obj
             (List.mapi
                (fun i (k, x) -> if i = f then (k, retyped x v) else (k, x))
                fields))
          (Printf.sprintf "%S" name))

(* --- Serve_check ----------------------------------------------------------- *)

let test_serve_check_healthy_spool () =
  with_spool (fun dir ->
      let sched = Serve.Sched.create ~config:(quiet_config 1) dir in
      let r = small_run () in
      let _ = submit_ok sched r in
      let _ = submit_ok sched r in
      Serve.Sched.drain sched;
      Serve.Sched.shutdown sched;
      let result = Check.Serve_check.scan dir in
      List.iter
        (fun f -> Format.printf "%a@." Check.Finding.pp f)
        result.Check.Serve_check.findings;
      Alcotest.(check int) "no findings on a healthy spool" 0
        (List.length result.Check.Serve_check.findings);
      Alcotest.(check int) "two jobs" 2 result.Check.Serve_check.jobs;
      Alcotest.(check int) "one stored result" 1
        result.Check.Serve_check.results;
      Alcotest.(check int) "nothing dangling" 0
        result.Check.Serve_check.dangling)

let test_serve_check_corrupt_journal () =
  with_spool (fun dir ->
      let a = small_run () in
      write_journal dir
        [ submitted_event ~id:1 ~t:1.0 a;
          "this is not json";
          submitted_event ~id:1 ~t:2.0 a;  (* submitted twice *)
          ev
            [ ("ev", Obs.Json.Str "done");
              ("t", Obs.Json.Float 3.0);
              ("job", Obs.Json.Int 9);  (* done before any submitted *)
              ("cached", Obs.Json.Bool false)
            ];
          "{\"torn" (* final line: only a warning *)
        ];
      let result = Check.Serve_check.scan dir in
      let fs = result.Check.Serve_check.findings in
      Alcotest.(check bool) "mid-file garbage is an error" true
        (has_rule "serve.journal.json" fs);
      Alcotest.(check bool) "impossible order located" true
        (has_rule "serve.journal.order" fs);
      Alcotest.(check bool) "torn final line only warns" true
        (List.exists
           (fun f ->
             f.Check.Finding.rule = "serve.journal.torn"
             && not (Check.Finding.is_error f))
           fs);
      Alcotest.(check bool) "dangling job warned" true
        (has_rule "serve.journal.dangling" fs))

let test_serve_check_store_layout () =
  with_spool (fun dir ->
      let a = small_run () in
      write_journal dir
        [ submitted_event ~id:1 ~t:1.0 a;
          ev
            [ ("ev", Obs.Json.Str "done");
              ("t", Obs.Json.Float 2.0);
              ("job", Obs.Json.Int 1);
              ("cached", Obs.Json.Bool false)
            ]
        ];
      Unix.mkdir (Filename.concat dir "results") 0o755;
      Unix.mkdir (Filename.concat dir "ckpt") 0o755;
      let touch path = close_out (open_out path) in
      touch (Filename.concat dir "results/not-a-hash.sexp");
      touch (Filename.concat dir "ckpt/job-1.ckpt");  (* orphan, and empty *)
      touch (Filename.concat dir "ckpt/stray.bin");
      let result = Check.Serve_check.scan dir in
      let fs = result.Check.Serve_check.findings in
      Alcotest.(check bool) "bad result name is an error" true
        (has_rule "serve.result.name" fs);
      Alcotest.(check bool) "stray checkpoint file is an error" true
        (has_rule "serve.ckpt.name" fs);
      Alcotest.(check bool) "orphan checkpoint warned" true
        (List.exists
           (fun f ->
             f.Check.Finding.rule = "serve.ckpt.orphan"
             && not (Check.Finding.is_error f))
           fs);
      (* The empty job-1.ckpt also fails the checkpoint body scan. *)
      Alcotest.(check bool) "checkpoint body scanned" true
        (List.exists
           (fun f ->
             String.length f.Check.Finding.rule >= 5
             && String.sub f.Check.Finding.rule 0 5 = "ckpt.")
           fs))

(* A daemon killed mid-write leaves [Obs.Atomic_file]'s temporary in
   the result or checkpoint store: each warns once under its own rule
   and is not also an unexpected name.  The spool is scanned while a
   result write and, inside it, a checkpoint write are in flight, so
   the names are the ones the writer generates. *)
let test_serve_check_store_temps () =
  with_spool (fun dir ->
      let a = small_run () in
      write_journal dir [ submitted_event ~id:1 ~t:1.0 a ];
      Unix.mkdir (Filename.concat dir "results") 0o755;
      Unix.mkdir (Filename.concat dir "ckpt") 0o755;
      let fs = ref [] in
      Obs.Atomic_file.write
        (Filename.concat dir
           ("results/" ^ Golden.Manifest.content_hash a ^ ".sexp"))
        (fun _ ->
          Obs.Atomic_file.write (Filename.concat dir "ckpt/job-1.ckpt")
            (fun _ ->
              fs := (Check.Serve_check.scan dir).Check.Serve_check.findings));
      let count rule =
        List.length
          (List.filter (fun f -> f.Check.Finding.rule = rule) !fs)
      in
      List.iter
        (fun (rule, want) -> Alcotest.(check int) rule want (count rule))
        [ ("serve.result.tmp", 1);
          ("serve.ckpt.tmp", 1);
          ("serve.result.name", 0);
          ("serve.ckpt.name", 0)
        ];
      Alcotest.(check bool) "temporaries only warn" true
        (List.for_all
           (fun f ->
             (f.Check.Finding.rule <> "serve.result.tmp"
             && f.Check.Finding.rule <> "serve.ckpt.tmp")
             || not (Check.Finding.is_error f))
           !fs))

(* The serve latency histogram must resolve a cache hit: fed samples
   spread like the perf smoke's hits, its p50 must lie within one
   bucket's relative width (hi / lo) of the exact median.  Two spreads:
   a hit job's submit-to-done latency (0.003-0.009 ms) and an
   in-process hit submit (0.016-0.029 ms).  A median in the first
   bucket, (0, lo], fails: there the quantile is only q x lo. *)
let test_latency_resolves_hits () =
  let bounds = Serve.Sched.latency_buckets in
  let check (lo_ms, hi_ms) =
    let h =
      Obs.Metrics.histogram (Obs.Metrics.create ()) "serve.latency_ms"
        ~buckets:bounds
    in
    let samples =
      Array.init 101 (fun i -> lo_ms +. ((hi_ms -. lo_ms) *. float i /. 100.))
    in
    Array.iter (Obs.Metrics.Histogram.observe h) samples;
    let median = samples.(50) in
    let p50 = Obs.Metrics.Histogram.quantile h 0.5 in
    let i = ref 0 in
    while bounds.(!i) < median do
      incr i
    done;
    let lo = if !i = 0 then 0. else bounds.(!i - 1) and hi = bounds.(!i) in
    if lo <= 0. then
      Alcotest.failf "median %g ms falls in the first bucket (0, %g]" median hi;
    let width = hi /. lo in
    if p50 > median *. width || p50 < median /. width then
      Alcotest.failf "p50 %g ms is not within %gx of the median %g ms" p50
        width median
  in
  List.iter check [ (0.003, 0.009); (0.016, 0.029) ]

let () =
  Alcotest.run "serve"
    [ ( "hash",
        [ Alcotest.test_case "canonical under reformatting" `Quick
            test_hash_canonical;
          Alcotest.test_case "name and jobs excluded" `Quick
            test_hash_ignores_label_fields;
          Alcotest.test_case "every content field moves it" `Quick
            test_hash_sensitive_to_content;
          Alcotest.test_case "committed smoke hashes pinned" `Quick
            test_hash_pinned
        ] );
      ( "cache",
        [ Alcotest.test_case "repeat submission served from cache" `Quick
            test_repeat_submission_cached;
          Alcotest.test_case "in-flight duplicate piggybacks" `Quick
            test_inflight_duplicate_piggybacks;
          Alcotest.test_case "4-worker pool sweeps each grid once" `Quick
            test_pool_dedup_exact;
          Alcotest.test_case "hit answered from the index" `Quick
            test_hit_from_index;
          Alcotest.test_case "restart re-reads a garbled result" `Quick
            test_restart_rereads_spool;
          Alcotest.test_case "restart serves stored results" `Quick
            test_restart_serves_stored;
          Alcotest.test_case "parse memo keys the whole text" `Quick
            test_memo_keys_whole_text
        ] );
      ( "resume",
        [ Alcotest.test_case "kill and resume = uninterrupted (serial)" `Quick
            test_kill_resume_serial;
          Alcotest.test_case "kill and resume = uninterrupted (pool)" `Quick
            test_kill_resume_parallel
        ] );
      ( "errors",
        [ Alcotest.test_case "malformed manifest is a structured error" `Quick
            test_malformed_submission_is_error;
          Alcotest.test_case "unbuildable geometry refused at submit" `Quick
            test_bad_geometry_refused;
          Alcotest.test_case "failures carry job id and name" `Quick
            test_failure_names_job
        ] );
      ( "cancel",
        [ Alcotest.test_case "queued leader promotes its follower" `Quick
            test_cancel_queued_leader;
          Alcotest.test_case "running job stops at its next tick" `Quick
            test_cancel_running
        ] );
      ( "memory",
        [ Alcotest.test_case "RSS flat over fresh jobs" `Quick
            test_rss_flat_over_fresh_jobs
        ] );
      ( "recovery",
        [ Alcotest.test_case "journal recovery resumes the spool" `Quick
            test_journal_recovery
        ] );
      ( "latency",
        [ Alcotest.test_case "p50 of sub-ms hits within a bucket" `Quick
            test_latency_resolves_hits
        ] );
      ( "proto",
        [ Alcotest.test_case "requests round-trip" `Quick test_proto_roundtrip;
          Alcotest.test_case "garbage requests rejected" `Quick
            test_proto_rejects_garbage;
          Alcotest.test_case "framing rejects oversize and garbage" `Quick
            test_proto_frames;
          QCheck_alcotest.to_alcotest prop_mutated_frames
        ] );
      ( "spool-check",
        [ Alcotest.test_case "healthy spool is clean" `Quick
            test_serve_check_healthy_spool;
          Alcotest.test_case "corrupt journal localized" `Quick
            test_serve_check_corrupt_journal;
          Alcotest.test_case "store layout violations localized" `Quick
            test_serve_check_store_layout;
          Alcotest.test_case "store temporaries warn once" `Quick
            test_serve_check_store_temps
        ] )
    ]
