(* serve-mixed: a closed loop against a `repro serve --workers 1`
   daemon over its Unix socket.  One client connection submits with
   [wait = true] and sends the next request only after the reply.

   Each pass submits every golden smoke run plus synthetic grid
   variants once (fresh jobs: the daemon records, sweeps and saves a
   v2 trace), each followed by a burst of repeats of manifests already
   answered, which the content-hash cache serves.  A pass's manifests
   carry a heap size that differs per pass; the heap does not affect a
   collected run (and is the no-GC run's capacity only), so every pass
   does the same work while staying fresh to the cache.  Every served
   fixture, hits included, is compared with [Golden.Fixture.compare]
   against the committed golden fixture or the benchmark's own. *)

let name = "serve-mixed"

let synthetic_count = 8
let hits_per_burst = 24
let pings_per_pass = 40

(* Wall seconds of one pass, kernels and checks included. *)
let nominal_pass_s = 6.

(* Synthetic variants of the first golden run: other corners of the
   cache grid, as `repro client load` makes them. *)
let synthetic (base : Golden.Manifest.run) v =
  let sizes = [| 16384; 32768; 65536; 131072; 262144; 524288 |] in
  let blocks = [| 16; 32; 64; 128 |] in
  let a = sizes.(v mod 6) and b = sizes.((v + 3) mod 6) in
  { base with
    Golden.Manifest.name = Printf.sprintf "synthetic-%d" v;
    cache_sizes = [ min a b; max a b ];
    block_sizes = [ blocks.(v mod 4) ];
    jobs = 1 }

(* Per-pass heap size: distinct content hash, same measurement. *)
let salted (run : Golden.Manifest.run) pass =
  let mb = 1024 * 1024 in
  { run with Golden.Manifest.heap_bytes = Some ((48 + pass + 1) * mb) }

let run_text run = Sexp.Datum.to_string (Golden.Manifest.run_to_datum run)

let expected_dir env = Filename.dirname env.Harness.expected_path

let fixture_path env (run : Golden.Manifest.run) =
  let file = run.name ^ ".sexp" in
  if String.starts_with ~prefix:"synthetic-" run.name then
    Filename.concat (expected_dir env) (Filename.concat "serve" file)
  else Filename.concat "golden" file

type daemon = {
  pid : int;
  dir : string;
  conn : Serve.Client.conn;
}

type t = {
  runs : (Golden.Manifest.run * Golden.Fixture.t option) list;
  daemon : daemon;
  mutable fresh_fixtures : Golden.Fixture.t list;  (** of the first pass *)
}

(* Built beside the benchmark by run.py. *)
let repro = String.concat Filename.dir_sep [ "_build"; "default"; "bin"; "repro.exe" ]

let boot env =
  let rec fresh i =
    let d = Filename.concat env.Harness.work_dir (Printf.sprintf "d%d" i) in
    if Sys.file_exists d then fresh (i + 1) else d
  in
  let dir = fresh 0 in
  Sys.mkdir dir 0o755;
  let sock = Filename.concat dir "s" in
  let log =
    Unix.openfile (Filename.concat dir "log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Unix.create_process repro
      [| repro; "serve"; "--workers"; "1"; "--socket"; sock; "--dir";
         Filename.concat dir "spool" |]
      Unix.stdin log log
  in
  Unix.close log;
  let kill () =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid)
  in
  let deadline = Clock.now () +. 60. in
  let rec connect () =
    match Serve.Client.connect_unix sock with
    | conn -> (
      match Serve.Client.request conn Serve.Proto.Ping with
      | Ok _ -> conn
      | Error msg -> failwith ("daemon ping: " ^ msg))
    | exception Unix.Unix_error _ when Clock.now () < deadline ->
      if fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then
        failwith "repro serve exited during start-up";
      Unix.sleepf 0.002;
      connect ()
  in
  match connect () with
  | conn -> { pid; dir; conn }
  | exception e ->
    kill ();
    raise e

let stop d =
  let asked =
    try
      Result.is_ok
        (Serve.Client.request d.conn (Serve.Proto.Shutdown { drain = false }))
    with _ -> false
  in
  (try Serve.Client.close d.conn with _ -> ());
  if not asked then (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid);
  Host.remove_tree d.dir

let setup env =
  let manifest = Golden.Manifest.load (Filename.concat "golden" "manifest.sexp") in
  let golden =
    List.map (fun r -> { r with Golden.Manifest.jobs = 1 }) manifest.runs
  in
  let base = List.hd golden in
  let runs = golden @ List.init synthetic_count (synthetic base) in
  let with_fixtures =
    List.map
      (fun r ->
        ( r,
          if env.Harness.emit then None
          else Some (Golden.Fixture.load (fixture_path env r)) ))
      runs
  in
  { runs = with_fixtures; daemon = boot env; fresh_fixtures = [] }

let field name json = Obs.Json.member name json

let reply_ok ~cached = function
  | Error msg -> Error msg
  | Ok json -> (
    match (field "state" json, field "cached" json, field "job" json) with
    | Some (Obs.Json.Str "done"), Some (Obs.Json.Bool c), Some (Obs.Json.Int id)
      when c = cached -> Ok id
    | _ ->
      Error
        (Printf.sprintf "unexpected reply (wanted cached=%b): %s" cached
           (Obs.Json.to_string json)))

let fetch_fixture conn id =
  match Serve.Client.request conn (Serve.Proto.Result id) with
  | Error msg -> Error msg
  | Ok json -> (
    match field "fixture" json with
    | Some (Obs.Json.Str text) ->
      Ok
        (Golden.Fixture.of_datum ~file:"reply"
           (Sexp.Parser.parse_one text))
    | _ -> Error "result reply without a fixture")

(* The served fixture against the expected one, re-keyed to the
   submitted run (the benchmark changes only [jobs] and the heap). *)
let compare_fixture env ~expected ~(run : Golden.Manifest.run)
    (actual : Golden.Fixture.t) =
  match expected with
  | None ->
    let path = fixture_path env run in
    if env.Harness.emit && Filename.basename (Filename.dirname path) = "serve"
    then
      Golden.Fixture.save
        { actual with run = { actual.run with heap_bytes = None } } path;
    Ok ()
  | Some (e : Golden.Fixture.t) -> (
    match
      Golden.Fixture.compare ~file:run.name ~expected:{ e with run } ~actual ()
    with
    | [] -> Ok ()
    | f :: _ -> Error (Format.asprintf "%a" Check.Finding.pp f))

let check_served t env ~pass ~cached ~run ~expected result =
  match reply_ok ~cached result with
  | Error _ as e -> e
  | Ok id -> (
    match fetch_fixture t.daemon.conn id with
    | Error _ as e -> e
    | Ok fx ->
      if (not cached) && pass = 0 then
        t.fresh_fixtures <- fx :: t.fresh_fixtures;
      compare_fixture env ~expected ~run fx)

let pass t env i =
  let conn = t.daemon.conn in
  let spans = env.Harness.spans in
  let submit run =
    Spans.call spans ~layer:"serve" ~name:"submit" (fun () ->
      Serve.Client.request conn
        (Serve.Proto.Submit { run_text = run_text run; wait = true }))
  in
  Harness.op env ~name:"ping"
    (fun sample ->
      List.init pings_per_pass (fun _ ->
        let t0 = Clock.now () in
        let r =
          Spans.call spans ~layer:"serve" ~name:"ping" (fun () ->
            Serve.Client.request conn Serve.Proto.Ping)
        in
        sample Harness.Ping (Clock.now () -. t0);
        r))
    (fun replies ->
      if List.for_all Result.is_ok replies then Ok ()
      else Error "ping failed");
  let answered = ref [] in
  List.iter
    (fun ((run, expected) : Golden.Manifest.run * _) ->
      let run = salted run i in
      Harness.op env ~name:"fresh" ~whole:[ Harness.Job ]
        (fun _ -> submit run)
        (check_served t env ~pass:i ~cached:false ~run ~expected);
      answered := (run, expected) :: !answered;
      let pool = Array.of_list !answered in
      let picks =
        List.init hits_per_burst (fun _ ->
          pool.(Random.State.int env.Harness.rng (Array.length pool)))
      in
      Harness.op env ~name:"hits"
        (fun sample ->
          List.map
            (fun (run, expected) ->
              let t0 = Clock.now () in
              let r = submit run in
              sample Harness.Hit (Clock.now () -. t0);
              (run, expected, r))
            picks)
        (fun replies ->
          Harness.all
            (List.map
               (fun (run, expected, r) () ->
                 check_served t env ~pass:i ~cached:true ~run ~expected r)
               replies)))
    (Harness.shuffle env t.runs)

let counter stats name =
  match Option.bind (field "counters" stats) (field name) with
  | Some (Obs.Json.Int n) -> n
  | _ -> 0

let run env ~seconds ~trace =
  let t, setup =
    Harness.setup env ~setup ~teardown:(fun t -> stop t.daemon)
  in
  Fun.protect ~finally:(fun () -> stop t.daemon) (fun () ->
    let passes =
      Harness.pass_count ~seconds ~nominal_pass_s
        ~min_passes:
          ((* >= 40 fresh jobs, so the p75 has 10 samples beyond it *)
           (40 + List.length t.runs - 1) / List.length t.runs)
    in
    let passes, peak_rss_kb =
      Harness.timed_phase env ~name ~passes ~trace
        ~rss:(fun () -> Host.vm_hwm_kb (string_of_int t.daemon.pid))
        ~pass:(pass t)
    in
    let stats =
      match Serve.Client.request t.daemon.conn Serve.Proto.Stats with
      | Ok s -> s
      | Error msg -> failwith ("stats: " ^ msg)
    in
    (* The daemon's own accounting: each total must be exactly the
       expected per-pass count times the passes, so a single stray
       failure or requeue shows. *)
    let n_passes = List.length passes in
    let per_pass c () =
      let total = counter stats c in
      if total mod n_passes <> 0 then
        Error
          (Printf.sprintf "daemon %s = %d is not a multiple of %d passes" c total
             n_passes)
      else
        Harness.expect env
          (Printf.sprintf "%s.%s_per_pass" name c)
          (string_of_int (total / n_passes))
    in
    Tally.record env.Harness.tally ~what:"daemon counters"
      (Harness.all
         (List.map per_pass
            [ "submitted"; "completed"; "cache_hits"; "failed"; "requeued" ]));
    let fx = t.fresh_fixtures in
    let sum f = float_of_int (List.fold_left (fun a x -> a + f x) 0 fx) in
    let is_hier (f : Golden.Fixture.t) = f.run.hier <> None in
    let cache_misses (c : Golden.Fixture.cache_result) =
      c.stats.misses + c.stats.collector_misses
    in
    let grid f = if is_hier f then [] else f.Golden.Fixture.caches in
    let hier_level f k =
      if is_hier f then
        match List.nth_opt f.Golden.Fixture.caches k with
        | Some c -> cache_misses c
        | None -> 0
      else 0
    in
    let events = sum (fun f -> f.Golden.Fixture.trace_events) in
    let submitted = counter stats "submitted" in
    { Report.setup; passes; peak_rss_kb;
      counts =
        [ ("vscheme.events", events);
          ("vscheme.collections", sum (fun f -> f.Golden.Fixture.collections));
          ("recording.v2_bytes_per_event",
           sum (fun f -> f.Golden.Fixture.trace_bytes) /. Float.max 1. events);
          ("sweep.event_configs",
           sum (fun f -> f.Golden.Fixture.trace_events * List.length (grid f)));
          ("sweep.misses",
           sum (fun f -> List.fold_left (fun a c -> a + cache_misses c) 0 (grid f)));
          ("hier.events",
           sum (fun f -> if is_hier f then f.Golden.Fixture.trace_events else 0));
          ("hier.l1_misses", sum (fun f -> hier_level f 0));
          ("hier.l3_misses", sum (fun f -> hier_level f 2));
          ("serve.ping_p50_ms", Stats.median (Harness.samples env Harness.Ping));
          ("serve.hit_p99_ms", Stats.percentile (Harness.samples env Harness.Hit) 99.);
          ("serve.cache_hit_ratio",
           float_of_int (counter stats "cache_hits")
           /. float_of_int (max 1 submitted));
          ("serve.failed", float_of_int (counter stats "failed"));
          ("serve.requeued", float_of_int (counter stats "requeued")) ] })
