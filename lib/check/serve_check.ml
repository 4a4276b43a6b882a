(* Static verification of a serve daemon's spool directory: the event
   journal is well-formed JSONL whose per-job event sequences obey the
   scheduler's state machine, and the result / checkpoint stores have
   the layout the daemon maintains.  Works from the files alone — no
   daemon, no golden dependency (the fixture-content rules that need
   the golden library compose at the CLI level). *)

type job_state =
  | Ready      (* submitted / requeued / recovered: runnable *)
  | Running
  | Terminal of string

type result = {
  dir : string;
  events : int;
  jobs : int;
  dangling : int;
  results : int;
  checkpoints : int;
  resumed : (int * string) list;
  findings : Finding.t list;
}

let journal_path dir = Filename.concat dir "journal.jsonl"
let results_dir dir = Filename.concat dir "results"
let ckpt_dir dir = Filename.concat dir "ckpt"

let read_lines path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let lines = ref [] in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> ());
        Ok (List.rev !lines))

let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')

let is_hash s = String.length s = 32 && String.for_all is_hex s

let is_job_ckpt name =
  match String.length name with
  | n when n > 9 ->
    String.length name > String.length "job-.ckpt"
    && String.sub name 0 4 = "job-"
    && Filename.check_suffix name ".ckpt"
    && String.for_all
         (fun c -> c >= '0' && c <= '9')
         (String.sub name 4 (n - 9))
  | _ -> false

(* --- Journal scan -------------------------------------------------------- *)

let scan_journal dir =
  let file = journal_path dir in
  let findings = ref [] in
  let add f = findings := f :: !findings in
  let states : (int, job_state) Hashtbl.t = Hashtbl.create 32 in
  let runs : (int, string) Hashtbl.t = Hashtbl.create 32 in
  let resumed_ids : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let fresh_done : (int, unit) Hashtbl.t = Hashtbl.create 32 in
  let events = ref 0 in
  (match read_lines file with
   | Error msg -> add (Finding.v ~rule:"serve.journal.io" ~file msg)
   | Ok lines ->
     let total = List.length lines in
     List.iteri
       (fun i line ->
         let lineno = i + 1 in
         let where = Finding.Line lineno in
         if String.trim line = "" then ()
         else
           match Obs.Json.of_string line with
           | Error msg ->
             (* A torn final line is what a SIGKILL leaves behind; a
                torn line anywhere else means the journal is corrupt. *)
             if lineno = total then
               add
                 (Finding.v ~severity:Finding.Warning
                    ~rule:"serve.journal.torn" ~file ~where
                    (Printf.sprintf "torn final line (%s)" msg))
             else
               add
                 (Finding.v ~rule:"serve.journal.json" ~file ~where
                    (Printf.sprintf "unparseable journal line (%s)" msg))
           | Ok ev -> (
             incr events;
             let str name =
               match Obs.Json.member name ev with
               | Some (Obs.Json.Str s) -> Some s
               | Some _ | None -> None
             in
             let bool name =
               match Obs.Json.member name ev with
               | Some (Obs.Json.Bool b) -> Some b
               | Some _ | None -> None
             in
             let has_bool name = Option.is_some (bool name) in
             let id =
               match Obs.Json.member "job" ev with
               | Some (Obs.Json.Int id) -> Some id
               | Some _ | None -> None
             in
             let time_ok =
               match Obs.Json.member "t" ev with
               | Some (Obs.Json.Float _ | Obs.Json.Int _) -> true
               | Some _ | None -> false
             in
             match (str "ev", id) with
             | None, _ | _, None ->
               add
                 (Finding.v ~rule:"serve.journal.fields" ~file ~where
                    "event without a string \"ev\" and integer \"job\" field")
             | Some kind, Some id -> (
               if not time_ok then
                 add
                   (Finding.v ~rule:"serve.journal.fields" ~file ~where
                      (Printf.sprintf
                         "%S event without a numeric \"t\" timestamp" kind));
               let state = Hashtbl.find_opt states id in
               let order msg =
                 add
                   (Finding.v ~rule:"serve.journal.order" ~file ~where
                      (Printf.sprintf "job %d: %s" id msg))
               in
               let require_live verb k =
                 match state with
                 | None ->
                   order (Printf.sprintf "%s before any \"submitted\"" verb)
                 | Some (Terminal t) ->
                   order (Printf.sprintf "%s after terminal %S" verb t)
                 | Some (Ready | Running) -> k ()
               in
               match kind with
               | "submitted" ->
                 (match str "run" with
                  | Some text -> Hashtbl.replace runs id text
                  | None ->
                    add
                      (Finding.v ~rule:"serve.journal.fields" ~file ~where
                         (Printf.sprintf
                            "job %d: \"submitted\" without a \"run\" text" id)));
                 (match state with
                  | Some _ -> order "submitted twice"
                  | None -> ());
                 Hashtbl.replace states id Ready
               | "started" ->
                 if not (has_bool "resumed") then
                   add
                     (Finding.v ~rule:"serve.journal.fields" ~file ~where
                        (Printf.sprintf
                           "job %d: \"started\" without a boolean \
                            \"resumed\" flag"
                           id));
                 if bool "resumed" = Some true then
                   Hashtbl.replace resumed_ids id ();
                 require_live "started" (fun () ->
                   (match state with
                    | Some Running -> order "started while already running"
                    | Some Ready | Some (Terminal _) | None -> ());
                   Hashtbl.replace states id Running)
               | "done" ->
                 if not (has_bool "cached") then
                   add
                     (Finding.v ~rule:"serve.journal.fields" ~file ~where
                        (Printf.sprintf
                           "job %d: \"done\" without a boolean \"cached\" \
                            flag"
                           id));
                 if bool "cached" = Some false then
                   Hashtbl.replace fresh_done id ();
                 require_live "done" (fun () ->
                   Hashtbl.replace states id (Terminal "done"))
               | "failed" | "cancelled" ->
                 require_live kind (fun () ->
                   Hashtbl.replace states id (Terminal kind))
               | "requeued" ->
                 require_live "requeued" (fun () ->
                   (match state with
                    | Some Ready -> order "requeued while not running"
                    | Some Running | Some (Terminal _) | None -> ());
                   Hashtbl.replace states id Ready)
               | "recovered" ->
                 require_live "recovered" (fun () ->
                   Hashtbl.replace states id Ready)
               | kind ->
                 add
                   (Finding.v ~severity:Finding.Warning
                      ~rule:"serve.journal.kind" ~file ~where
                      (Printf.sprintf "job %d: unknown event kind %S" id kind)))))
       lines);
  let dangling = ref 0 in
  Hashtbl.iter
    (fun id state ->
      match state with
      | Terminal _ -> ()
      | Ready | Running ->
        incr dangling;
        add
          (Finding.v ~severity:Finding.Warning ~rule:"serve.journal.dangling"
             ~file:(journal_path dir)
             (Printf.sprintf
                "job %d is not terminal at end of journal (daemon killed? a \
                 restart will recover it)"
                id)))
    states;
  let resumed =
    Hashtbl.fold
      (fun id () acc ->
        match Hashtbl.find_opt runs id with
        | Some text when Hashtbl.mem fresh_done id -> (id, text) :: acc
        | Some _ | None -> acc)
      resumed_ids []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  ( !events,
    Hashtbl.length states,
    !dangling,
    states,
    resumed,
    List.rev !findings )

(* --- Store scan ---------------------------------------------------------- *)

let list_dir path =
  match Sys.readdir path with
  | entries ->
    let l = Array.to_list entries in
    List.sort String.compare l
  | exception Sys_error _ -> []

let scan_results dir =
  let findings = ref [] in
  let entries = list_dir (results_dir dir) in
  List.iter
    (fun name ->
      let file = Filename.concat (results_dir dir) name in
      if Filename.check_suffix name ".sexp" then begin
        if not (is_hash (Filename.chop_suffix name ".sexp")) then
          findings :=
            Finding.v ~rule:"serve.result.name" ~file
              "result file stem is not a 32-hex-digit content hash"
            :: !findings
      end
      else if Filename.check_suffix name ".tmp" then
        findings :=
          Finding.v ~severity:Finding.Warning ~rule:"serve.result.tmp" ~file
            "leftover temporary from an interrupted atomic write"
          :: !findings
      else
        findings :=
          Finding.v ~rule:"serve.result.name" ~file
            "unexpected file in the result store (want <hash>.sexp)"
          :: !findings)
    entries;
  (List.length entries, List.rev !findings)

let scan_ckpts dir terminal_of =
  let findings = ref [] in
  let entries = list_dir (ckpt_dir dir) in
  let count = ref 0 in
  List.iter
    (fun name ->
      let file = Filename.concat (ckpt_dir dir) name in
      if Filename.check_suffix name ".tmp" then
        findings :=
          Finding.v ~severity:Finding.Warning ~rule:"serve.ckpt.tmp" ~file
            "leftover temporary from a checkpoint interrupted by a kill"
          :: !findings
      else if not (is_job_ckpt name) then
        findings :=
          Finding.v ~rule:"serve.ckpt.name" ~file
            "unexpected file in the checkpoint store (want job-<id>.ckpt)"
          :: !findings
      else begin
        incr count;
        let id =
          int_of_string
            (String.sub name 4 (String.length name - 9))
        in
        (match terminal_of id with
         | Some t ->
           findings :=
             Finding.v ~severity:Finding.Warning ~rule:"serve.ckpt.orphan"
               ~file
               (Printf.sprintf
                  "checkpoint for job %d, which the journal records as %s" id
                  t)
             :: !findings
         | None -> ());
        (* The checkpoint body itself goes through the sweep-checkpoint
           scanner: magic, geometry, per-line state invariants. *)
        let r = Ckpt_check.scan file in
        findings := List.rev_append r.Ckpt_check.findings !findings
      end)
    entries;
  (!count, List.rev !findings)

let scan dir =
  if not (Sys.file_exists (journal_path dir)) then
    { dir;
      events = 0;
      jobs = 0;
      dangling = 0;
      results = 0;
      checkpoints = 0;
      resumed = [];
      findings =
        [ Finding.v ~rule:"serve.journal.io" ~file:dir
            "a directory without a journal.jsonl, so not a serve spool"
        ]
    }
  else begin
    let events, jobs, dangling, states, resumed, journal_findings =
      scan_journal dir
    in
    let results, result_findings = scan_results dir in
    let terminal_of id =
      match Hashtbl.find_opt states id with
      | Some (Terminal t) -> Some t
      | Some (Ready | Running) | None -> None
    in
    let checkpoints, ckpt_findings = scan_ckpts dir terminal_of in
    { dir;
      events;
      jobs;
      dangling;
      results;
      checkpoints;
      resumed;
      findings = journal_findings @ result_findings @ ckpt_findings
    }
  end

let report r =
  { Report.file = r.dir;
    ok =
      Some
        (Printf.sprintf
           "serve spool (%d events, %d jobs, %d dangling, %d results, %d \
            checkpoints)"
           r.events r.jobs r.dangling r.results r.checkpoints);
    fields =
      [ ("events", Obs.Json.Int r.events);
        ("jobs", Obs.Json.Int r.jobs);
        ("dangling", Obs.Json.Int r.dangling);
        ("results", Obs.Json.Int r.results);
        ("checkpoints", Obs.Json.Int r.checkpoints)
      ];
    findings = r.findings
  }
