(* Static verification of telemetry documents (Core.Telemetry.to_json
   output: [{meta, metrics, events}]) and bare JSONL event timelines.

   The structural property of interest is span discipline: every
   [Begin] event must be closed by an [End] of the same category and
   name, in stack (properly nested) order — the phase markers
   ([phase.load] / [phase.run]) and GC collection spans the runner and
   collectors emit.  Timestamps ride the simulated instruction clock
   and must never decrease.

   The extracted [Stream_check.expect] totals let `repro check`
   cross-validate a recording against the document that was exported alongside it:
   run.mutator_refs / run.collector_refs must equal the trace's phase
   tallies, run.collections its collector-run count. *)

let counter_value metrics name =
  match Obs.Json.member name metrics with
  | None -> None
  | Some inst -> Option.bind (Obs.Json.member "value" inst) Obs.Json.to_int

let expectations_of_json doc =
  match Obs.Json.member "metrics" doc with
  | None -> Stream_check.no_expect
  | Some metrics ->
    { Stream_check.mutator_refs = counter_value metrics "run.mutator_refs";
      collector_refs = counter_value metrics "run.collector_refs";
      collections = counter_value metrics "run.collections"
    }

(* --- Span discipline over an event list -------------------------------- *)

let check_events ~file events =
  let out = ref [] in
  let report ?severity ?where ~rule message =
    out := Finding.v ?severity ?where ~rule ~file message :: !out
  in
  let stack = ref [] in
  let last_ts = ref min_int in
  List.iteri
    (fun i (e : Obs.Events.event) ->
      if e.ts < !last_ts then
        report ~severity:Finding.Warning ~rule:"doc.timestamps"
          ~where:(Finding.Event i)
          (Printf.sprintf "timestamp %d of %S decreases (previous %d)" e.ts
             e.name !last_ts);
      last_ts := max !last_ts e.ts;
      match e.kind with
      | Obs.Events.Instant | Obs.Events.Sample -> ()
      | Obs.Events.Begin -> stack := (e.cat, e.name, i) :: !stack
      | Obs.Events.End -> (
        match !stack with
        | [] ->
          report ~rule:"doc.phase-nesting" ~where:(Finding.Event i)
            (Printf.sprintf "End %S with no open span" e.name)
        | (cat, name, _) :: rest ->
          if cat = e.cat && name = e.name then stack := rest
          else begin
            report ~rule:"doc.phase-nesting" ~where:(Finding.Event i)
              (Printf.sprintf
                 "End %S closes the still-open span %S (spans must nest)"
                 e.name name);
            (* Recover by unwinding to the matching Begin, if any. *)
            let rec unwind = function
              | (c, n, _) :: rest when not (c = e.cat && n = e.name) ->
                unwind rest
              | (_, _, _) :: rest -> rest
              | [] -> []
            in
            stack := unwind !stack
          end))
    events;
  List.iter
    (fun (_, name, i) ->
      report ~rule:"doc.phase-nesting" ~where:(Finding.Event i)
        (Printf.sprintf "span %S is never closed" name))
    !stack;
  List.rev !out

(* --- Whole documents ---------------------------------------------------- *)

let parse_event ~file i j =
  match Obs.Events.event_of_json j with
  | Ok e -> Ok e
  | Error msg ->
    Error
      (Finding.v ~rule:"doc.event" ~file ~where:(Finding.Event i)
         (Printf.sprintf "malformed event: %s" msg))

let check_doc ~file doc =
  match doc with
  | Obs.Json.Obj _ -> (
    let expectations = expectations_of_json doc in
    match Obs.Json.member "events" doc with
    | None ->
      ( expectations,
        [ Finding.v ~severity:Finding.Warning ~rule:"doc.shape" ~file
            "document has no \"events\" field; span discipline not checked"
        ] )
    | Some events_json -> (
      match Obs.Json.to_list events_json with
      | None ->
        ( expectations,
          [ Finding.v ~rule:"doc.shape" ~file "\"events\" is not a list" ] )
      | Some items ->
        let findings = ref [] in
        let events =
          List.mapi (fun i j -> parse_event ~file i j) items
          |> List.filter_map (function
               | Ok e -> Some e
               | Error f ->
                 findings := f :: !findings;
                 None)
        in
        (expectations, List.rev !findings @ check_events ~file events)))
  | _ ->
    ( Stream_check.no_expect,
      [ Finding.v ~rule:"doc.shape" ~file "not a JSON object" ] )

let load_doc ~file =
  match
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg ->
    Error (Finding.v ~rule:"doc.io" ~file msg)
  | contents -> (
    match Obs.Json.of_string contents with
    | Ok doc -> Ok doc
    | Error msg ->
      Error
        (Finding.v ~rule:"doc.json" ~file
           (Printf.sprintf "unparseable JSON: %s" msg)))

let check_file ~file =
  match load_doc ~file with
  | Error f -> (Stream_check.no_expect, [ f ])
  | Ok doc -> check_doc ~file doc
