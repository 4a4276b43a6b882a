(* The job scheduler: a Domain.spawn worker pool over one FIFO job
   queue, fronted by a content-hash result cache and backed by the
   spool's journal and checkpoint files.

   Concurrency discipline: every mutable field of [t] and of the jobs
   it owns is read and written under [t.mutex], with one exception
   that is deliberate and benign — the progress callback polls
   [job.cancel_requested] and [t.stop] without the lock (a stale read
   just delays cancellation by one epoch; OCaml's memory model makes
   the racy bool read well-defined).  Journal appends happen inside
   the lock, so the journal's event order always agrees with the state
   transitions it records; the journal is the daemon's one event
   stream ([tail -f] it to watch).

   Jobs with the same content hash dedup two ways: a repeat of an
   already-measured manifest is answered from the result store at
   submit time (a cache hit), and a repeat of a manifest that is still
   queued or running piggybacks on the in-flight leader and completes
   with it.  Either way the grid is swept once per distinct config.
   A hit costs no parse either: the store answers from its in-memory
   index, and [parsed] remembers the run and content hash of every
   submission text that parsed, so a repeated text is parsed and
   hashed once.

   Kill-and-resume: a worker that dies mid-job (simulated by the
   [kill] injection hook, or a whole-process SIGKILL in the soak test)
   leaves the job's checkpoint behind; the job is requeued (or
   recovered from the journal on restart) and the next attempt resumes
   from the checkpoint bit-identically. *)

exception Killed
(* Raised out of the progress callback by the kill-injection hook to
   simulate a worker dying mid-job. *)

type config = {
  workers : int;
  checkpoint_every : int option;
  kill : (Job.t -> int -> bool) option;
}

let default_config = { workers = 2; checkpoint_every = None; kill = None }

type t = {
  store : Store.t;
  config : config;
  mutex : Mutex.t;
  work : Condition.t;
  change : Condition.t;
  queue : Job.t Queue.t;
  jobs : (int, Job.t) Hashtbl.t;
  by_hash : (string, int) Hashtbl.t;
  parsed : (string, Golden.Manifest.run * string) Hashtbl.t;
      (* submission text -> (run, content hash), successful parses
         only; it grows with [jobs], whose jobs keep their texts too *)
  followers : (int, int list) Hashtbl.t;
  mutable next_id : int;
  mutable stop : [ `No | `Drain | `Now ];
  mutable domains : unit Domain.t list;
  registry : Obs.Metrics.registry;
  counters : (string * Obs.Metrics.Counter.t) list;
      (* [counter_names], each registered as [serve.<name>] *)
  h_latency : Obs.Metrics.Histogram.t;
}

(* The scheduler's counters, in the order [counters_json] reports
   them. *)
let counter_names =
  [ "submitted"; "completed"; "failed"; "cancelled"; "cache_hits"; "resumed";
    "requeued" ]

let count t name = Obs.Metrics.Counter.incr (List.assoc name t.counters)

let now () = Unix.gettimeofday ()

(* --- Events -------------------------------------------------------------- *)

let event kind job fields =
  Obs.Json.Obj
    (("ev", Obs.Json.Str kind)
     :: ("t", Obs.Json.Float (now ()))
     :: ("job", Obs.Json.Int job.Job.id)
     :: fields)

(* Called with [t.mutex] held: the journal line lands in transition
   order. *)
let emit t ev = Store.append t.store ev

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* --- Job-state transitions (all with t.mutex held) ----------------------- *)

let enqueue t job =
  Queue.push job t.queue;
  Condition.signal t.work

let finish t job state ~cached =
  job.Job.state <- state;
  job.Job.cached <- cached;
  job.Job.finished_at <- Some (now ());
  Obs.Metrics.Histogram.observe t.h_latency (Job.latency_ms ~now:(now ()) job);
  (match state with
   | Job.Done ->
     count t "completed";
     if cached then count t "cache_hits";
     emit t
       (event "done" job
          [ ("cached", Obs.Json.Bool cached);
            ("latency_ms", Obs.Json.Float (Job.latency_ms ~now:(now ()) job))
          ])
   | Job.Failed msg ->
     count t "failed";
     emit t
       (event "failed" job
          [ ("name", Obs.Json.Str job.Job.name); ("error", Obs.Json.Str msg) ])
   | Job.Cancelled ->
     count t "cancelled";
     emit t (event "cancelled" job [])
   | Job.Queued | Job.Running _ -> assert false);
  Condition.broadcast t.change

(* The leader for [job.hash] is done with the hash (finished,
   cancelled, or failed).  On success every live follower completes as
   a cache hit; otherwise the first live follower is promoted to
   leader and enqueued, inheriting the rest. *)
let release_hash t job ~success =
  (match Hashtbl.find_opt t.by_hash job.Job.hash with
   | Some leader when leader = job.Job.id -> Hashtbl.remove t.by_hash job.Job.hash
   | Some _ | None -> ());
  let ids = Option.value ~default:[] (Hashtbl.find_opt t.followers job.Job.id) in
  Hashtbl.remove t.followers job.Job.id;
  let live =
    List.filter_map
      (fun id ->
        match Hashtbl.find_opt t.jobs id with
        | Some f when not (Job.terminal f) -> Some f
        | Some _ | None -> None)
      ids
  in
  if success then
    List.iter (fun f -> finish t f Job.Done ~cached:true) live
  else
    match live with
    | [] -> ()
    | next :: rest ->
      Hashtbl.replace t.by_hash next.Job.hash next.Job.id;
      Hashtbl.replace t.followers next.Job.id
        (List.map (fun f -> f.Job.id) rest);
      enqueue t next

(* Follow the in-flight leader of [job.hash], or become its leader and
   enqueue. *)
let follow_or_lead t job =
  match Hashtbl.find_opt t.by_hash job.Job.hash with
  | Some leader ->
    Hashtbl.replace t.followers leader
      (Option.value ~default:[] (Hashtbl.find_opt t.followers leader)
       @ [ job.Job.id ])
  | None ->
    Hashtbl.replace t.by_hash job.Job.hash job.Job.id;
    enqueue t job

(* --- Submission ---------------------------------------------------------- *)

let parse_run run_text =
  match Sexp.Parser.parse_one ~filename:"<submit>" run_text with
  | exception Sexp.Parser.Error (msg, _) -> Error ("manifest parse error: " ^ msg)
  | exception Sexp.Lexer.Error (msg, _) -> Error ("manifest lex error: " ^ msg)
  | datum -> (
    match Golden.Manifest.run_of_datum ~file:"<submit>" datum with
    | run -> Ok run
    | exception Golden.Sx.Parse_error msg -> Error msg
    | exception Failure msg -> Error msg)

(* [parse_run] and the content hash of a submission text, each text
   parsed and hashed once. *)
let parse t run_text =
  match locked t (fun () -> Hashtbl.find_opt t.parsed run_text) with
  | Some p -> Ok p
  | None -> (
    match parse_run run_text with
    | Error _ as e -> e
    | Ok run ->
      let p = (run, Golden.Manifest.content_hash run) in
      locked t (fun () -> Hashtbl.replace t.parsed run_text p);
      Ok p)

let submit t run_text =
  match parse t run_text with
  | Error _ as e -> e
  | Ok (run, hash) ->
    (* The store lookup happens outside the lock: an index miss reads
       and parses the result file.  A losing race just means the
       worker-side lookup answers instead. *)
    let cached = Store.lookup t.store hash in
    locked t (fun () ->
      if t.stop <> `No then Error "daemon is shutting down"
      else begin
        let id = t.next_id in
        t.next_id <- id + 1;
        let job = Job.make ~id ~now:(now ()) ~run ~hash ~run_text in
        Hashtbl.replace t.jobs id job;
        count t "submitted";
        emit t
          (event "submitted" job
             [ ("name", Obs.Json.Str job.Job.name);
               ("hash", Obs.Json.Str job.Job.hash);
               ("run", Obs.Json.Str run_text)
             ]);
        (match cached with
         | Some _ -> finish t job Job.Done ~cached:true
         | None -> follow_or_lead t job);
        Ok id
      end)

(* --- Queries ------------------------------------------------------------- *)

let job_json t id =
  locked t (fun () ->
    match Hashtbl.find_opt t.jobs id with
    | Some job -> Ok (Job.to_json ~now:(now ()) job)
    | None -> Error (Printf.sprintf "no such job %d" id))

let result t id =
  let info =
    locked t (fun () ->
      match Hashtbl.find_opt t.jobs id with
      | None -> Error (Printf.sprintf "no such job %d" id)
      | Some job -> (
        match job.Job.state with
        | Job.Done -> Ok (job.Job.hash, job.Job.name)
        | Job.Failed msg ->
          Error (Printf.sprintf "job %d (%s) failed: %s" id job.Job.name msg)
        | Job.Cancelled ->
          Error (Printf.sprintf "job %d (%s) was cancelled" id job.Job.name)
        | Job.Queued | Job.Running _ ->
          Error
            (Printf.sprintf "job %d (%s) is still %s" id job.Job.name
               (Job.state_string job))))
  in
  match info with
  | Error _ as e -> e
  | Ok (hash, name) -> (
    match Store.lookup t.store hash with
    | Some stored -> Ok stored
    | None ->
      Error
        (Printf.sprintf "job %d (%s): result %s missing from the store" id name
           hash))

let cancel t id =
  locked t (fun () ->
    match Hashtbl.find_opt t.jobs id with
    | None -> Error (Printf.sprintf "no such job %d" id)
    | Some job -> (
      match job.Job.state with
      | Job.Done | Job.Failed _ | Job.Cancelled ->
        Error
          (Printf.sprintf "job %d (%s) is already %s" id job.Job.name
             (Job.state_string job))
      | Job.Queued ->
        job.Job.cancel_requested <- true;
        finish t job Job.Cancelled ~cached:false;
        (* A queued leader may still sit in the queue; workers skip
           non-Queued entries on pop, but its followers must not wait
           on a corpse. *)
        release_hash t job ~success:false;
        Ok "cancelled"
      | Job.Running _ ->
        job.Job.cancel_requested <- true;
        Ok "cancelling"))

let counters_json t =
  Obs.Json.Obj
    (List.map
       (fun (name, c) -> (name, Obs.Json.Int (Obs.Metrics.Counter.value c)))
       t.counters)

let stats t =
  locked t (fun () ->
    let count st =
      Hashtbl.fold
        (fun _ j acc -> if Job.state_string j = st then acc + 1 else acc)
        t.jobs 0
    in
    Obs.Json.Obj
      [ ("workers", Obs.Json.Int t.config.workers);
        ( "jobs",
          Obs.Json.Obj
            (List.map
               (fun st -> (st, Obs.Json.Int (count st)))
               [ "queued"; "running"; "done"; "failed"; "cancelled" ]) );
        ("counters", counters_json t);
        (* The daemon process's trace memo: jobs that share a trace
           record it once. *)
        ( "runner",
          Obs.Json.Obj
            (List.map
               (fun (name, n) -> (name, Obs.Json.Int n))
               (Core.Runner.counters ())) );
        ("metrics", Obs.Metrics.to_json t.registry)
      ])

(* --- Waiting ------------------------------------------------------------- *)

let wait t id =
  locked t (fun () ->
    let rec loop () =
      match Hashtbl.find_opt t.jobs id with
      | None -> Error (Printf.sprintf "no such job %d" id)
      | Some job when Job.terminal job -> Ok (Job.to_json ~now:(now ()) job)
      | Some _ ->
        Condition.wait t.change t.mutex;
        loop ()
    in
    loop ())

let drain t =
  locked t (fun () ->
    let live () =
      Hashtbl.fold (fun _ j acc -> acc || not (Job.terminal j)) t.jobs false
    in
    while live () do
      Condition.wait t.change t.mutex
    done)

(* --- Workers ------------------------------------------------------------- *)

(* Pop the oldest Queued job.  Entries whose job has left the Queued
   state (cancelled while queued) are dropped in passing. *)
let rec pop t =
  match Queue.take_opt t.queue with
  | None -> None
  | Some ({ Job.state = Job.Queued; _ } as job) -> Some job
  | Some _ -> pop t

let run_job t w job =
  let resumed_now = Sys.file_exists (Store.checkpoint_path t.store ~id:job.Job.id) in
  locked t (fun () ->
    job.Job.state <- Job.Running w;
    job.Job.attempts <- job.Job.attempts + 1;
    if resumed_now && not job.Job.resumed then begin
      job.Job.resumed <- true;
      count t "resumed"
    end;
    emit t
      (event "started" job
         [ ("worker", Obs.Json.Int w);
           ("attempt", Obs.Json.Int job.Job.attempts);
           ("resumed", Obs.Json.Bool resumed_now)
         ]));
  (* Racy reads of [cancel_requested] and [t.stop] are deliberate:
     taking the scheduler lock every replay epoch would serialize the
     pool, and a one-epoch-stale read only delays the cancellation. *)
  let progress cursor =
    if job.Job.cancel_requested || t.stop = `Now then raise Exec.Cancelled;
    match t.config.kill with
    | Some k -> if k job cursor then raise Killed
    | None -> ()
  in
  match
    Exec.run ~store:t.store ~checkpoint_every:t.config.checkpoint_every
      ~progress job
  with
  | fx ->
    Store.put t.store fx;
    Store.remove_checkpoint t.store ~id:job.Job.id;
    locked t (fun () ->
      finish t job Job.Done ~cached:false;
      release_hash t job ~success:true)
  | exception Exec.Cancelled ->
    Store.remove_checkpoint t.store ~id:job.Job.id;
    locked t (fun () ->
      finish t job Job.Cancelled ~cached:false;
      release_hash t job ~success:false)
  | exception Killed ->
    (* The checkpoint stays; the next attempt resumes from it. *)
    locked t (fun () ->
      job.Job.state <- Job.Queued;
      count t "requeued";
      emit t (event "requeued" job [ ("reason", Obs.Json.Str "killed") ]);
      enqueue t job)
  | exception exn ->
    let msg =
      match exn with Failure m -> m | exn -> Printexc.to_string exn
    in
    Store.remove_checkpoint t.store ~id:job.Job.id;
    locked t (fun () ->
      finish t job (Job.Failed msg) ~cached:false;
      release_hash t job ~success:false)

let worker t w =
  let rec loop () =
    Mutex.lock t.mutex;
    let job =
      let rec take () =
        if t.stop = `Now then None
        else
          match pop t with
          | Some job -> Some job
          | None ->
            if t.stop = `Drain then None
            else begin
              Condition.wait t.work t.mutex;
              take ()
            end
      in
      take ()
    in
    Mutex.unlock t.mutex;
    match job with
    | None -> ()
    | Some job ->
      (* A worker-side cache check catches the leader-less races the
         submit-side lookup can miss (e.g. a recovered duplicate). *)
      (match Store.lookup t.store job.Job.hash with
       | Some _ ->
         locked t (fun () ->
           if job.Job.state = Job.Queued then begin
             finish t job Job.Done ~cached:true;
             release_hash t job ~success:true
           end)
       | None -> run_job t w job);
      loop ()
  in
  loop ()

(* --- Journal recovery ---------------------------------------------------- *)

let recover t events =
  let float_member name json =
    match Obs.Json.member name json with
    | Some j -> Obs.Json.to_float j
    | None -> None
  in
  let int_member name json =
    match Obs.Json.member name json with
    | Some j -> Obs.Json.to_int j
    | None -> None
  in
  let str_member name json =
    match Obs.Json.member name json with
    | Some j -> Obs.Json.to_str j
    | None -> None
  in
  List.iter
    (fun ev ->
      match (str_member "ev" ev, int_member "job" ev) with
      | Some kind, Some id -> (
        match kind with
        | "submitted" -> (
          match str_member "run" ev with
          | None -> ()
          | Some run_text -> (
            match parse t run_text with
            | Error _ -> ()
            | Ok (run, hash) ->
              let submitted_at =
                Option.value ~default:(now ()) (float_member "t" ev)
              in
              let job =
                Job.make ~id ~now:submitted_at ~run ~hash ~run_text
              in
              Hashtbl.replace t.jobs id job;
              if id >= t.next_id then t.next_id <- id + 1))
        | _ -> (
          match Hashtbl.find_opt t.jobs id with
          | None -> ()
          | Some job -> (
            match kind with
            | "started" ->
              job.Job.state <- Job.Running 0;
              job.Job.attempts <-
                Option.value ~default:(job.Job.attempts + 1)
                  (int_member "attempt" ev)
            | "done" ->
              job.Job.state <- Job.Done;
              (match Obs.Json.member "cached" ev with
               | Some (Obs.Json.Bool b) -> job.Job.cached <- b
               | Some _ | None -> ());
              job.Job.finished_at <- float_member "t" ev
            | "failed" ->
              job.Job.state <-
                Job.Failed
                  (Option.value ~default:"unknown" (str_member "error" ev));
              job.Job.finished_at <- float_member "t" ev
            | "cancelled" ->
              job.Job.state <- Job.Cancelled;
              job.Job.finished_at <- float_member "t" ev
            | "requeued" | "recovered" -> job.Job.state <- Job.Queued
            | _ -> ())))
      | _ -> ())
    events;
  (* Re-enqueue everything the dead daemon left non-terminal.  A job
     whose checkpoint survives resumes from it; journal order makes a
     fair replay order. *)
  let live =
    List.sort
      (fun a b -> compare a.Job.id b.Job.id)
      (Hashtbl.fold
         (fun _ j acc -> if Job.terminal j then acc else j :: acc)
         t.jobs [])
  in
  locked t (fun () ->
    List.iter
      (fun job ->
        job.Job.state <- Job.Queued;
        emit t (event "recovered" job []);
        follow_or_lead t job)
      live)

(* --- Lifecycle ----------------------------------------------------------- *)

let latency_buckets =
  [| 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000.; 2000.; 5000.; 10000.;
     30000.; 60000. |]

let create ?(config = default_config) dir =
  if config.workers < 1 then invalid_arg "Sched.create: workers < 1";
  let events = Store.read_journal dir in
  let store = Store.create dir in
  let registry = Obs.Metrics.create () in
  let t =
    { store;
      config;
      mutex = Mutex.create ();
      work = Condition.create ();
      change = Condition.create ();
      queue = Queue.create ();
      jobs = Hashtbl.create 64;
      by_hash = Hashtbl.create 64;
      parsed = Hashtbl.create 64;
      followers = Hashtbl.create 16;
      next_id = 1;
      stop = `No;
      domains = [];
      registry;
      counters =
        List.map
          (fun name ->
            (name, Obs.Metrics.counter registry ("serve." ^ name)))
          counter_names;
      h_latency =
        Obs.Metrics.histogram registry "serve.latency_ms"
          ~buckets:latency_buckets
    }
  in
  recover t events;
  t.domains <-
    List.init config.workers (fun w -> Domain.spawn (fun () -> worker t w));
  t

let shutdown ?(drain = true) t =
  locked t (fun () ->
    if t.stop = `No then begin
      t.stop <- (if drain then `Drain else `Now);
      if not drain then
        Hashtbl.iter
          (fun _ job ->
            match job.Job.state with
            | Job.Queued ->
              job.Job.cancel_requested <- true;
              finish t job Job.Cancelled ~cached:false;
              release_hash t job ~success:false
            | Job.Running _ -> job.Job.cancel_requested <- true
            | Job.Done | Job.Failed _ | Job.Cancelled -> ())
          t.jobs;
      Condition.broadcast t.work;
      Condition.broadcast t.change
    end);
  List.iter Domain.join t.domains;
  t.domains <- [];
  Store.close t.store

let latency_quantile t q = Obs.Metrics.Histogram.quantile t.h_latency q

let counter_value t name =
  match List.assoc_opt name t.counters with
  | Some c -> Obs.Metrics.Counter.value c
  | None -> invalid_arg ("Sched.counter_value: unknown counter " ^ name)

let store t = t.store
