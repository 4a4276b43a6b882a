(* The repro command-line tool: run the paper's experiments, execute
   Scheme programs on the vscheme machine, and do ad-hoc cache
   simulations of workloads. *)

let ppf = Format.std_formatter

(* Run [f], which saves files, and return the exit status: 0, or 1
   after reporting a save that failed as "repro: <why>".  The atomic
   writer has then removed its temporary and left any earlier file at
   the path as it was. *)
let save_status f =
  match f () with
  | () -> 0
  | exception Sys_error msg ->
    Format.eprintf "repro: %s@." msg;
    1

(* Every "FILE or -" output: [-] is stdout; a file is replaced
   atomically, so no reader sees it half written.  Returns the exit
   status. *)
let write_out path content =
  if path = "-" then begin
    print_string content;
    0
  end
  else
    save_status (fun () ->
        Obs.Atomic_file.write path (fun oc -> output_string oc content))

(* An optional "FILE or -" output of [content ()]; a file that was
   written is confirmed on [ppf] by [confirm path]. *)
let write_opt ppf out content ~confirm =
  match out with
  | None -> 0
  | Some path ->
    let rc = write_out path (content ()) in
    if rc = 0 && path <> "-" then Format.fprintf ppf "%s@." (confirm path);
    rc

(* Run [k] on the formatter for a command's own report, given its
   "FILE or -" [outputs]: stderr when one of them is stdout, so stdout
   holds that document alone.  Two outputs cannot share stdout. *)
let with_report outputs k =
  match List.filter (Option.equal String.equal (Some "-")) outputs with
  | [] -> k ppf
  | [ _ ] -> k Format.err_formatter
  | _ :: _ :: _ ->
    Format.eprintf "repro: only one output can be `-' (stdout)@.";
    1

(* A count flag is read as a string and parsed here, under the rule
   REPRO_JOBS follows (Units.parse_count): a bad value exits 1 naming
   the flag and the value, before [k] runs anything.  A flag with a
   default is declared [opt string "N"], so its doc shows the default
   its declaration states; one whose default is worked out elsewhere is
   [opt (some string) None], read by [with_opt_count]. *)
let with_count flag value k =
  match Core.Units.parse_count value with
  | Ok n -> k n
  | Error msg ->
    Format.eprintf "repro: %s: %s@." flag msg;
    1

let with_opt_count flag value k =
  match value with
  | None -> k None
  | Some v -> with_count flag v (fun n -> k (Some n))

(* --- Shared argument conversions ------------------------------------- *)

let size_conv =
  let parse s =
    match Core.Units.parse_size s with
    | Ok n -> Ok n
    | Error msg -> Error (`Msg (msg ^ " (try 64k, 2m, 1g)"))
  in
  let print fmt n = Format.fprintf fmt "%a" Memsim.Sweep.pp_size n in
  Cmdliner.Arg.conv (parse, print)

let gc_conv =
  let parse s =
    match Core.Units.parse_gc s with
    | Ok gc -> Ok gc
    | Error msg -> Error (`Msg msg)
  in
  let print fmt gc = Format.pp_print_string fmt (Core.Units.format_gc gc) in
  Cmdliner.Arg.conv (parse, print)

let hier_conv =
  let parse s =
    match Core.Units.parse_hier s with
    | Ok cpu -> Ok cpu
    | Error msg -> Error (`Msg msg)
  in
  let print fmt cpu = Format.pp_print_string fmt (Core.Units.format_hier cpu) in
  Cmdliner.Arg.conv (parse, print)

(* Per-level report shared by `repro run --hier' and `repro replay
   --hier'. *)
let hier_report ppf h =
  let cfg = Memsim.Hier.geometry h in
  let stats = Memsim.Hier.stats h in
  Core.Report.table ppf
    ~headers:[ "level"; "geometry"; "refs"; "misses"; "fetches"; "miss ratio" ]
    ~rows:
      (List.mapi
         (fun i (s : Memsim.Cache.stats) ->
           let l = cfg.Memsim.Hier.levels.(i) in
           let refs = s.Memsim.Cache.refs + s.Memsim.Cache.collector_refs in
           let misses =
             s.Memsim.Cache.misses + s.Memsim.Cache.collector_misses
           in
           [ Printf.sprintf "L%d" (i + 1);
             Printf.sprintf "%s/%dw/%s %s"
               (Core.Units.format_size l.Memsim.Level.size_bytes)
               l.Memsim.Level.ways
               (Core.Units.format_size l.Memsim.Level.block_bytes)
               (Memsim.Level.policy_label l.Memsim.Level.policy);
             Core.Report.eng refs;
             Core.Report.eng misses;
             Core.Report.eng
               (s.Memsim.Cache.fetches + s.Memsim.Cache.collector_fetches);
             Format.sprintf "%.4f"
               (float_of_int misses /. float_of_int (max 1 refs))
           ])
         (Array.to_list stats))

(* --- telemetry exports ------------------------------------------------- *)

(* The confirmations go to stderr, so stdout holds only the command's
   own output (`make check-tables` diffs `repro run --metrics`'s). *)
let write_telemetry tel ~metrics ~trace_events =
  match tel with
  | None -> 0
  | Some t ->
    let rc_metrics =
      write_opt Format.err_formatter metrics
        (fun () ->
          Obs.Json.to_pretty_string (Core.Telemetry.to_json t) ^ "\n")
        ~confirm:(Printf.sprintf "wrote metrics to %s")
    in
    let rc_trace =
      write_opt Format.err_formatter trace_events
        (fun () ->
          Obs.Json.to_string
            (Obs.Events.to_chrome_trace (Core.Telemetry.timeline t)))
        ~confirm:(Printf.sprintf "wrote trace events to %s (load in Perfetto)")
    in
    max rc_metrics rc_trace

(* --- experiments ------------------------------------------------------ *)

let list_experiments () =
  Core.Report.table ppf
    ~headers:[ "id"; "paper artifact"; "title" ]
    ~rows:
      (List.map
         (fun e ->
           [ e.Core.Experiments.id; e.Core.Experiments.paper_artifact;
             e.Core.Experiments.title ])
         Core.Experiments.all);
  0

(* --- scheme ------------------------------------------------------------ *)

let run_scheme file expr gc heap_bytes show_stats =
  let source =
    match file, expr with
    | Some path, None ->
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Some s
    | None, Some e -> Some e
    | None, None -> None
    | Some _, Some _ -> None
  in
  match source with
  | None ->
    Format.eprintf "scheme: give exactly one of FILE or -e EXPR@.";
    1
  | Some source -> (
    let m =
      Vscheme.Machine.create
        { Vscheme.Machine.default_config with gc; heap_bytes }
    in
    match Vscheme.Machine.eval_string m source with
    | v ->
      let out = Vscheme.Machine.output m in
      if out <> "" then Format.fprintf ppf "%s" out;
      Format.fprintf ppf "%s@." (Vscheme.Machine.value_to_string m v);
      if show_stats then begin
        let s = Vscheme.Machine.stats m in
        Format.fprintf ppf
          "; %d instructions, %d collector instructions, %d collections, %s \
           allocated@."
          s.Vscheme.Machine.mutator_insns s.Vscheme.Machine.collector_insns
          s.Vscheme.Machine.collections
          (Core.Report.mb s.Vscheme.Machine.bytes_allocated)
      end;
      0
    | exception Vscheme.Heap.Runtime_error msg ->
      Format.eprintf "runtime error: %s@." msg;
      1
    | exception Vscheme.Compiler.Compile_error msg ->
      Format.eprintf "compile error: %s@." msg;
      1
    | exception Vscheme.Expander.Syntax_error msg ->
      Format.eprintf "syntax error: %s@." msg;
      1
    | exception Sexp.Parser.Error (msg, pos) ->
      Format.eprintf "parse error at line %d: %s@." pos.Sexp.Lexer.line msg;
      1
    | exception Vscheme.Heap.Out_of_memory msg ->
      Format.eprintf "out of memory: %s@." msg;
      1)

(* --- workloads ---------------------------------------------------------- *)

let list_workloads () =
  Core.Report.table ppf
    ~headers:[ "name"; "paper analogue"; "lines" ]
    ~rows:
      (List.map
         (fun w ->
           [ w.Workloads.Workload.name;
             w.Workloads.Workload.paper_analogue;
             string_of_int (Workloads.Workload.source_lines w)
           ])
         Workloads.Workload.all);
  0

(* --- the simulated cache ------------------------------------------------ *)

(* What `repro run' and `replay' simulate: a --hier preset, or
   the --cache/--block/--policy geometry as a one-level direct-mapped
   hierarchy (a grid cell, as Golden.Fixture builds it). *)
let build_hier hier (cache_bytes, block_bytes) policy =
  match hier with
  | Some cpu ->
    Memsim.Hier.create (Memsim.Hier.preset ~write_miss_policy:policy cpu)
  | None ->
    Memsim.Hier.create
      (Memsim.Hier.config
         ~levels:
           [ Memsim.Level.config ~write_miss_policy:policy
               ~size_bytes:cache_bytes ~block_bytes ~ways:1 ()
           ]
         ())

(* Replay the whole recording into [h], resumably through
   [Sweep.hier_run_resumable] when [checkpoint] names a file.
   @raise Failure on a stale or foreign checkpoint. *)
let replay_into ?checkpoint ?checkpoint_every ppf h recording =
  match checkpoint with
  | None -> Memsim.Sweep.hier_run_serial [| h |] recording
  | Some ck ->
    let resumed = Sys.file_exists ck in
    Memsim.Sweep.hier_run_resumable ?checkpoint_every ~checkpoint:ck [| h |]
      recording;
    Format.fprintf ppf "%s checkpoint %s (remove it to replay from the start)@."
      (if resumed then "resumed from" else "wrote")
      ck

let miss_ratio (s : Memsim.Cache.stats) =
  Format.sprintf "%.4f"
    (float_of_int s.Memsim.Cache.misses
     /. float_of_int (max 1 s.Memsim.Cache.refs))

(* The tail `repro run WORKLOAD' and `repro replay' share: the
   simulated cache into the telemetry document (every level of a
   --hier preset, or the one cache of the --cache/--block geometry),
   then the document written to --metrics and --trace-events. *)
let finish_telemetry tel hier h (cache_bytes, block_bytes) ~metrics
    ~trace_events =
  Option.iter
    (fun t ->
      match hier with
      | Some cpu ->
        Core.Telemetry.record_hier t h;
        Core.Telemetry.set_meta t "hier"
          (Obs.Json.Str (Memsim.Hier.cpu_label cpu))
      | None ->
        Core.Telemetry.record_cache t (Memsim.Hier.level_stats h 0);
        Core.Telemetry.set_meta t "cache_bytes" (Obs.Json.Int cache_bytes);
        Core.Telemetry.set_meta t "block_bytes" (Obs.Json.Int block_bytes))
    tel;
  write_telemetry tel ~metrics ~trace_events

(* A workload recorded, then replayed into the simulated cache: the
   run's vital statistics and overheads, plus the per-level table for
   a hierarchy preset. *)
let run_workload ppf w hier geometry policy gc scale metrics trace_events =
  let tel =
    if metrics <> None || trace_events <> None then
      Some (Core.Telemetry.create ())
    else None
  in
  let events = Option.map Core.Telemetry.timeline tel in
  let h = build_hier hier geometry policy in
  let r, recording = Core.Runner.record ~gc ?events ?scale w in
  replay_into ppf h recording;
  let insns = r.Core.Runner.stats.Vscheme.Machine.mutator_insns in
  let s = Memsim.Hier.level_stats h 0 in
  let overhead cpu =
    Core.Report.pct (Memsim.Hier.overhead h cpu ~instructions:insns)
  in
  let table rows =
    Core.Report.table ppf ~headers:[ "metric"; "value" ]
      ~rows:
        (([ "workload"; w.Workloads.Workload.name ] :: rows)
         @ [ [ "O_cache slow"; overhead Memsim.Timing.Slow ];
             [ "O_cache fast"; overhead Memsim.Timing.Fast ]
           ])
  in
  let run_rows =
    [ [ "scale"; string_of_int r.Core.Runner.scale ];
      [ "result"; r.Core.Runner.value ];
      [ "instructions"; Core.Report.eng insns ];
      [ "references"; Core.Report.eng r.Core.Runner.refs ]
    ]
  in
  Option.iter
    (fun t ->
      Core.Telemetry.record_run t r;
      Core.Telemetry.record_runner t)
    tel;
  (match hier with
   | Some cpu ->
     table
       ([ "hierarchy";
          Printf.sprintf "%s (%s)" (Memsim.Hier.cpu_label cpu)
            (Memsim.Hier.cpu_title cpu) ]
        :: run_rows);
     hier_report ppf h
   | None ->
     table
       (run_rows
        @ [ [ "collector refs"; Core.Report.eng s.Memsim.Cache.collector_refs ];
            [ "allocated";
              Core.Report.mb
                r.Core.Runner.stats.Vscheme.Machine.bytes_allocated ];
            [ "collections";
              string_of_int r.Core.Runner.stats.Vscheme.Machine.collections ];
            [ "misses"; Core.Report.eng s.Memsim.Cache.misses ];
            [ "collector misses";
              Core.Report.eng s.Memsim.Cache.collector_misses ];
            [ "alloc misses"; Core.Report.eng s.Memsim.Cache.alloc_misses ];
            [ "fetches"; Core.Report.eng s.Memsim.Cache.fetches ];
            [ "miss ratio"; miss_ratio s ]
          ]));
  finish_telemetry tel hier h geometry ~metrics ~trace_events

(* The commands that run workloads (run, record, profile): [--jobs N]
   (profile has none) and [--scale N] under the count rule, then
   [k scale], with a workload's own failure (the heap exhausted, a
   runtime error in the program) reported as a `repro:' message and
   exit 1. *)
let with_workloads jobs scale k =
  with_opt_count "--jobs" jobs @@ fun n ->
  with_opt_count "--scale" scale @@ fun scale ->
  Option.iter Core.Runner.set_jobs n;
  match k scale with
  | rc -> rc
  | exception Vscheme.Heap.Out_of_memory msg ->
    Format.eprintf "repro: out of memory: %s@." msg;
    1
  | exception Vscheme.Heap.Runtime_error msg ->
    Format.eprintf "repro: runtime error: %s@." msg;
    1

(* [repro run] targets are experiment ids or workload names (none: every
   experiment); workloads go through the simulated cache with the
   telemetry flags.  The experiments of one invocation share a single
   telemetry document, begun before the first of them runs, so it
   carries the runner.* trace-memo counters of the whole invocation;
   each workload writes its own, so the two kinds cannot share a
   --metrics or --trace-events file.  Every experiment measures one
   recording at a time and claims its caches across --jobs domains. *)
let run_targets targets hier geometry policy gc scale metrics trace_events
    jobs =
  with_workloads jobs scale @@ fun scale ->
  with_report [ metrics; trace_events ] @@ fun ppf ->
  let classified =
    if targets = [] then
      List.map (fun e -> `Experiment e) Core.Experiments.all
    else
      List.map
        (fun id ->
          match Core.Experiments.find id with
          | Some e -> `Experiment e
          | None -> (
            match Workloads.Workload.find id with
            | Some w -> `Workload w
            | None -> `Unknown id))
        targets
  in
  let unknown =
    List.filter_map (function `Unknown id -> Some id | _ -> None) classified
  in
  let experiments =
    List.filter_map (function `Experiment e -> Some e | _ -> None) classified
  in
  let telemetry = metrics <> None || trace_events <> None in
  if unknown <> [] then begin
    Format.eprintf
      "unknown experiment or workload(s): %s (try `repro experiments' or \
       `repro workloads')@."
      (String.concat ", " unknown);
    1
  end
  else if
    telemetry && experiments <> []
    && List.length experiments < List.length classified
  then begin
    Format.eprintf
      "--metrics/--trace-events: give experiment ids or workload names, not \
       both@.";
    1
  end
  else
    let tel =
      if telemetry && experiments <> [] then begin
        let t = Core.Telemetry.create () in
        Core.Telemetry.set_meta t "experiments"
          (Obs.Json.List
             (List.map (fun e -> Obs.Json.Str e.Core.Experiments.id) experiments));
        Core.Telemetry.set_meta t "scale"
          (Obs.Json.Int (Core.Runner.scale_factor ()));
        Some t
      end
      else None
    in
    let rc =
      List.fold_left
        (fun rc target ->
          match target with
          | `Experiment e ->
            Format.fprintf ppf "@.==== E-%s: %s [%s] ====@."
              e.Core.Experiments.id e.Core.Experiments.title
              e.Core.Experiments.paper_artifact;
            e.Core.Experiments.run ppf;
            rc
          | `Workload w ->
            max rc
              (run_workload ppf w hier geometry policy gc scale metrics
                 trace_events)
          | `Unknown _ -> assert false)
        0 classified
    in
    Option.iter Core.Telemetry.record_runner tel;
    max rc (write_telemetry tel ~metrics ~trace_events)

(* --- record / replay ----------------------------------------------------- *)

(* Save a recording and say so; the line is returned, not printed, so
   worker domains can save and the main domain print in order. *)
let record_report format out_path w (r, recording) =
  Memsim.Recording.save ~format recording out_path;
  let bytes = (Unix.stat out_path).Unix.st_size in
  Printf.sprintf
    "recorded %d references of %s (scale %d) to %s (%s, %.2f bytes/event)"
    (Memsim.Recording.length recording)
    w.Workloads.Workload.name r.Core.Runner.scale out_path
    (Memsim.Recording.format_label format)
    (float_of_int bytes
     /. float_of_int (max 1 (Memsim.Recording.length recording)))

let record names out_path scale format gc heap_bytes attr_out jobs =
  with_workloads jobs scale @@ fun scale ->
  let resolved = List.map (fun n -> (n, Workloads.Workload.find n)) names in
  match List.find_opt (fun (_, w) -> w = None) resolved with
  | Some (name, _) ->
    Format.eprintf "unknown workload %S (try `repro workloads')@." name;
    1
  | None ->
    match List.filter_map snd resolved with
    | [] ->
      Format.eprintf "record: no workload given (try `repro workloads')@.";
      1
    | [ w ] ->
      (* Fast path: the memory appends packed events straight into the
         recording, no per-event closure. *)
      let table = Option.map (fun _ -> Memsim.Attr.create ()) attr_out in
      let r, recording =
        Core.Runner.record ~gc ?heap_bytes ?scale ?attr:table w
      in
      save_status (fun () ->
          Format.fprintf ppf "%s@."
            (record_report format out_path w (r, recording));
          match (attr_out, table) with
          | Some path, Some t ->
            Memsim.Attr.save t path;
            Format.fprintf ppf
              "wrote attribution sidecar to %s (%d region epochs, %d \
               sites); `repro profile --trace %s --attr %s' replays it@."
              path (Memsim.Attr.num_epochs t) (Memsim.Attr.num_sites t)
              out_path path
          | _ -> ())
    | ws when attr_out <> None ->
      ignore ws;
      Format.eprintf "record: --attr requires a single workload@.";
      1
    | ws ->
      (* Several independent runs: shard them across the domain pool
         (--jobs / REPRO_JOBS).  Each claim records, saves and releases
         one trace into its own derived output file, so at most one
         recording per domain is resident; the report lines of the
         saves that succeeded are printed in workload order after the
         join. *)
      let ws = Array.of_list ws in
      let n = Array.length ws in
      let lines = Array.make n "" in
      let record_one i =
        let w = ws.(i) in
        let ((_, recording) as recorded) =
          Core.Runner.record ~gc ?heap_bytes ?scale w
        in
        Fun.protect
          ~finally:(fun () -> Memsim.Recording.release recording)
          (fun () ->
            lines.(i) <-
              record_report format
                (out_path ^ "." ^ w.Workloads.Workload.name)
                w recorded)
      in
      let print_lines () =
        Array.iter
          (fun line -> if line <> "" then Format.fprintf ppf "%s@." line)
          lines
      in
      save_status (fun () ->
          Fun.protect ~finally:print_lines (fun () ->
              Memsim.Sweep.parallel_for
                ~jobs:(min (Core.Runner.jobs ()) n)
                n record_one))

(* Replay a saved trace into the simulated cache and print its table.
   The telemetry document rebuilds collector activity from the trace's
   phase bits as gc.collection spans, with pause-size percentiles (p50/
   p90/p99 of collector refs per collection) on the gc.pause_refs
   histogram. *)
let replay path hier geometry policy checkpoint checkpoint_every metrics
    trace_events =
  with_opt_count "--checkpoint-every" checkpoint_every
  @@ fun checkpoint_every ->
  with_report [ metrics; trace_events ] @@ fun ppf ->
  match Memsim.Recording.load path with
  | exception Sys_error msg | exception Failure msg ->
    Format.eprintf "replay: %s@." msg;
    1
  | recording -> (
    let h = build_hier hier geometry policy in
    match replay_into ?checkpoint ?checkpoint_every ppf h recording with
    | exception Failure msg ->
      Format.eprintf "replay: %s@." msg;
      1
    | () ->
      let events = Core.Report.eng (Memsim.Recording.length recording) in
      (match hier with
       | Some cpu ->
         Format.fprintf ppf "%s events through %s (%s)@." events
           (Memsim.Hier.cpu_label cpu)
           (Memsim.Hier.cpu_title cpu);
         hier_report ppf h
       | None ->
         let s = Memsim.Hier.level_stats h 0 in
         Core.Report.table ppf ~headers:[ "metric"; "value" ]
           ~rows:
             [ [ "events"; events ];
               [ "mutator refs"; Core.Report.eng s.Memsim.Cache.refs ];
               [ "collector refs";
                 Core.Report.eng s.Memsim.Cache.collector_refs ];
               [ "misses"; Core.Report.eng s.Memsim.Cache.misses ];
               [ "fetches"; Core.Report.eng s.Memsim.Cache.fetches ];
               [ "miss ratio"; miss_ratio s ]
             ]);
      let tel =
        if metrics = None && trace_events = None then None
        else begin
          let t =
            Core.Telemetry.create
              ~timeline:(Core.Telemetry.of_recording recording) ()
          in
          Core.Telemetry.observe_gc_pauses t;
          Core.Telemetry.set_meta t "trace" (Obs.Json.Str path);
          Core.Telemetry.set_meta t "trace_events"
            (Obs.Json.Int (Memsim.Recording.length recording));
          Some t
        end
      in
      finish_telemetry tel hier h geometry ~metrics ~trace_events)

(* --- check: static trace / telemetry-document verification --------------- *)

(* Geometry mirrors what Runner.record builds for these flags, so a trace
   from `repro record` verifies with the same defaults it was recorded
   under (the runner's dynamic-area rule, Machine's static and stack
   reservations, which no producer changes). *)
let check_geometry gc heap_bytes =
  let heap_bytes = Core.Runner.resolve_heap_bytes heap_bytes in
  let cfg = { Vscheme.Machine.default_config with gc; heap_bytes } in
  { Check.Stream_check.static_base = 0;
    stack_base = Vscheme.Machine.stack_base_bytes cfg;
    dynamic_base = Vscheme.Machine.dynamic_base_bytes cfg;
    dynamic_limit = Vscheme.Machine.dynamic_limit_bytes cfg;
    semispace_bytes =
      (match gc with
       | Vscheme.Machine.Cheney { semispace_bytes } ->
         (* The machine rounds the semispace up to whole words. *)
         let words =
           (semispace_bytes + Memsim.Trace.word_bytes - 1)
           / Memsim.Trace.word_bytes
         in
         Some (words * Memsim.Trace.word_bytes)
       | Vscheme.Machine.No_gc | Vscheme.Machine.Generational _
       | Vscheme.Machine.Mark_sweep _ -> None)
  }

(* A stored fixture's content must re-hash to its file name: the one
   serve-spool rule that needs the golden library. *)
let spool_hash_findings dir =
  let results = Filename.concat dir "results" in
  let entries =
    match Sys.readdir results with
    | entries -> List.sort String.compare (Array.to_list entries)
    | exception Sys_error _ -> []
  in
  List.concat_map
    (fun name ->
      if not (Filename.check_suffix name ".sexp") then []
      else
        let file = Filename.concat results name in
        let stem = Filename.chop_suffix name ".sexp" in
        match Golden.Fixture.load file with
        | exception Golden.Sx.Parse_error msg ->
          [ Check.Finding.v ~rule:"serve.result.parse" ~file msg ]
        | fx ->
          let hash = Golden.Manifest.content_hash fx.Golden.Fixture.run in
          if hash = stem then []
          else
            [ Check.Finding.v ~rule:"serve.result.hash" ~file
                (Printf.sprintf
                   "stored fixture's manifest re-hashes to %s, not the \
                    file's %s"
                   hash stem)
            ])
    entries

let check_files files gc heap_bytes raw json_out =
  if files = [] then begin
    Format.eprintf "check: no files given (traces and/or telemetry .json)@.";
    1
  end
  else begin
    with_report [ json_out ] @@ fun ppf ->
    let geometry =
      if raw then None
      else Some (check_geometry gc heap_bytes)
    in
    (* Every directory is checked as a serve spool, so one without a
       journal.jsonl gets a finding that says so rather than an I/O
       error from reading it as a trace. *)
    let is_spool f = Sys.file_exists f && Sys.is_directory f in
    let spools, files = List.partition is_spool files in
    let is_doc f = Filename.check_suffix f ".json" in
    let is_attr f = Filename.check_suffix f ".attr" in
    (* Checkpoints have no fixed extension (--checkpoint takes any
       path), so sniff the magic instead of the name. *)
    let is_ckpt f =
      (not (is_doc f)) && (not (is_attr f))
      &&
      match
        In_channel.with_open_bin f (fun ic ->
            In_channel.really_input_string ic 8)
      with
      | Some ("SWPCKPT1" | "SWHCKPT1") -> true
      | Some _ | None -> false
      | exception Sys_error _ -> false
    in
    let ckpts = List.filter is_ckpt files in
    let traces =
      List.filter
        (fun f -> (not (is_doc f)) && (not (is_attr f)) && not (is_ckpt f))
        files
    in
    let docs =
      List.map (fun f -> (f, Check.Doc_check.check_file ~file:f))
        (List.filter is_doc files)
    in
    (* Expectations from a telemetry document cross-check the trace's
       phase tallies — but only when exactly one trace is given. *)
    let expect =
      match (docs, traces) with
      | [ (_, (e, _)) ], [ _ ] -> e
      | _ -> Check.Stream_check.no_expect
    in
    let traces = List.map (Check.Trace_file.check ~geometry ~expect) traces in
    (* A sidecar's positions and a checkpoint's header are bounded by
       the recording's event count — known when exactly one trace is
       on the command line and it decoded without errors (a truncated
       trace's partial count would put every later position out of
       bounds). *)
    let events =
      match traces with
      | [ (report, n) ] when Check.Report.passed report -> n
      | _ -> None
    in
    let reports =
      List.map fst traces
      @ List.map
          (fun (file, (_, findings)) ->
            { Check.Report.file;
              ok = Some "telemetry document";
              fields = [];
              findings
            })
          docs
      @ List.map
          (fun f -> Check.Attr_check.report (Check.Attr_check.scan ?events f))
          (List.filter is_attr files)
      @ List.map
          (fun f -> Check.Ckpt_check.report (Check.Ckpt_check.scan ?events f))
          ckpts
      @ List.map
          (fun dir ->
            let r = Check.Serve_check.scan dir in
            Check.Serve_check.report
              { r with
                Check.Serve_check.findings =
                  r.Check.Serve_check.findings @ spool_hash_findings dir
              })
          spools
    in
    Check.Report.print ppf reports;
    let rc_json =
      write_opt ppf json_out
        (fun () ->
          Obs.Json.to_pretty_string (Check.Report.to_json reports) ^ "\n")
        ~confirm:(Printf.sprintf "wrote findings to %s")
    in
    max rc_json (if List.for_all Check.Report.passed reports then 0 else 1)
  end

(* --- profile: cache-miss attribution ------------------------------------- *)

(* Address-space size for a loaded sidecar: the largest bound any
   epoch ever published (the heap publishes its full window, so this
   covers the dynamic area). *)
let addr_limit_of_table (t : Memsim.Attr.table) =
  let limit = ref 1 in
  for i = 0 to t.Memsim.Attr.n_epochs - 1 do
    limit := max !limit t.Memsim.Attr.epoch_to_hi.(i);
    limit := max !limit t.Memsim.Attr.epoch_from_hi.(i);
    limit := max !limit t.Memsim.Attr.epoch_dyn_lo.(i)
  done;
  !limit

let render_profile ppf (p : Obs.Profile.t) ~heatmap =
  Format.fprintf ppf "%s on %s: %s events, %s misses%s@." p.Obs.Profile.workload
    p.Obs.Profile.cache
    (Core.Report.eng p.Obs.Profile.events)
    (Core.Report.eng (Obs.Profile.total_misses p))
    (if p.Obs.Profile.sample_every = 1 then ""
     else
       Printf.sprintf " (sampled: %d of %d chunks attributed)"
         p.Obs.Profile.chunks_attributed p.Obs.Profile.chunks_seen);
  Core.Report.table ppf
    ~headers:
      [ "region"; "phase"; "refs"; "misses"; "alloc misses"; "fetches";
        "writebacks" ]
    ~rows:
      (List.filter_map
         (fun (c : Obs.Profile.cell) ->
           if c.Obs.Profile.refs = 0 && c.Obs.Profile.writebacks = 0 then None
           else
             Some
               [ c.Obs.Profile.region; c.Obs.Profile.phase;
                 Core.Report.eng c.Obs.Profile.refs;
                 Core.Report.eng c.Obs.Profile.misses;
                 Core.Report.eng c.Obs.Profile.alloc_misses;
                 Core.Report.eng c.Obs.Profile.fetches;
                 Core.Report.eng c.Obs.Profile.writebacks
               ])
         p.Obs.Profile.cells);
  (match Obs.Profile.top_sites p with
   | [] -> ()
   | top ->
     Format.fprintf ppf "@.top allocation sites by allocation misses:@.";
     Core.Report.table ppf
       ~headers:[ "site"; "alloc misses"; "alloc writes" ]
       ~rows:
         (List.map
            (fun (s : Obs.Profile.site) ->
              [ s.Obs.Profile.site;
                Core.Report.eng s.Obs.Profile.alloc_misses;
                Core.Report.eng s.Obs.Profile.alloc_writes
              ])
            top));
  if heatmap then begin
    let h = p.Obs.Profile.heat in
    Format.fprintf ppf
      "@.miss map (rows: %a of address space from 0; columns: %s trace \
       events):@."
      Memsim.Sweep.pp_size h.Obs.Profile.row_bytes
      (Core.Report.eng h.Obs.Profile.col_events);
    Analysis.Heatmap.render ppf ~rows:h.Obs.Profile.rows
      ~cols:h.Obs.Profile.cols
      ~row_label:(fun r ->
        Format.asprintf "%a " Memsim.Sweep.pp_size (r * h.Obs.Profile.row_bytes))
      h.Obs.Profile.counts;
    Format.fprintf ppf "@.misses by region over time:@.";
    let nregions = Array.length Obs.Profile.region_names in
    (* region_time is column-major for the replay loop; transpose for
       the row-per-region render. *)
    let by_region = Array.make (nregions * h.Obs.Profile.cols) 0 in
    for c = 0 to h.Obs.Profile.cols - 1 do
      for r = 0 to nregions - 1 do
        by_region.((r * h.Obs.Profile.cols) + c) <-
          p.Obs.Profile.region_time.((c * nregions) + r)
      done
    done;
    Analysis.Heatmap.render ppf ~rows:nregions ~cols:h.Obs.Profile.cols
      ~row_label:(fun r -> Obs.Profile.region_names.(r) ^ " ")
      by_region
  end

let profile_target name trace attr_path (cache_bytes, block_bytes) policy gc
    heap_bytes scale sample_every json_out folded_out trace_events no_heatmap =
  with_workloads None scale @@ fun scale ->
  with_count "--sample" sample_every @@ fun sample_every ->
  with_report [ json_out; folded_out; trace_events ] @@ fun ppf ->
  let source =
    match (name, trace, attr_path) with
    | Some n, None, None -> (
      match Workloads.Workload.find n with
      | None ->
        Error (Printf.sprintf "unknown workload %S (try `repro workloads')" n)
      | Some w -> Ok (`Run w))
    | None, Some tr, Some at -> Ok (`Saved (tr, at))
    | None, Some _, None ->
      Error "profile: --trace needs --attr (the sidecar from `repro record \
             --attr')"
    | _ -> Error "profile: give either WORKLOAD or --trace FILE --attr FILE"
  in
  let loaded =
    Result.bind source (function
      | `Run w ->
        let _, recording, table, addr_limit =
          Core.Profile.capture ~gc ?heap_bytes ?scale w
        in
        Ok (w.Workloads.Workload.name, recording, table, addr_limit)
      | `Saved (tr, at) -> (
        match (Memsim.Recording.load tr, Memsim.Attr.load at) with
        | recording, table ->
          Ok (Filename.remove_extension (Filename.basename tr), recording,
              table, addr_limit_of_table table)
        | exception Sys_error msg | exception Failure msg ->
          Error ("profile: " ^ msg)))
  in
  match loaded with
  | Error msg ->
    Format.eprintf "%s@." msg;
    1
  | Ok (workload, recording, table, addr_limit) ->
    let cache =
      Memsim.Level.config ~write_miss_policy:policy ~size_bytes:cache_bytes
        ~block_bytes ~ways:1 ()
    in
    let p =
      Core.Profile.profile_recording ~sample_every ~workload ~addr_limit
        ~cache table recording
    in
    render_profile ppf p ~heatmap:(not no_heatmap);
    let rc_json =
      write_opt ppf json_out
        (fun () -> Obs.Json.to_pretty_string (Obs.Profile.to_json p) ^ "\n")
        ~confirm:(Printf.sprintf "wrote profile to %s")
    in
    let rc_folded =
      write_opt ppf folded_out
        (fun () -> Obs.Profile.collapsed_stacks p)
        ~confirm:
          (Printf.sprintf
             "wrote collapsed stacks to %s (feed to flamegraph.pl)")
    in
    let rc_trace =
      write_opt ppf trace_events
        (fun () ->
          (* Reconstructed GC spans plus per-region miss counter
             tracks, aligned on trace-event indices. *)
          let tl = Core.Telemetry.of_recording recording in
          Obs.Profile.overlay p tl;
          Obs.Json.to_string (Obs.Events.to_chrome_trace tl))
        ~confirm:
          (Printf.sprintf
             "wrote trace events with miss overlays to %s (load in \
              Perfetto)")
    in
    max rc_json (max rc_folded rc_trace)

(* --- Command definitions ------------------------------------------------ *)

open Cmdliner

let policy_conv =
  Arg.enum
    (List.map
       (fun p -> (Memsim.Cache.write_miss_label p, p))
       [ Memsim.Cache.Write_validate; Memsim.Cache.Fetch_on_write ])

let cache_arg =
  Arg.(value & opt size_conv (64 * 1024) & info [ "cache" ] ~docv:"SIZE" ~doc:"Cache size")

let block_arg =
  Arg.(value & opt int 64 & info [ "block" ] ~docv:"BYTES" ~doc:"Block size")

(* --cache and --block, checked together while the command line is
   parsed: a geometry the simulated cache cannot take is a usage error
   naming the flag, not an exception out of Level.create. *)
let geometry_arg =
  let check cache block =
    let pow2 n = n > 0 && n land (n - 1) = 0 in
    let bad flag fmt =
      Printf.ksprintf
        (fun msg -> `Error (true, Printf.sprintf "option '%s': %s" flag msg))
        fmt
    in
    if not (pow2 cache) then
      bad "--cache" "%d bytes is not a power of two" cache
    else if not (pow2 block && block >= Memsim.Trace.word_bytes && block <= 256)
    then
      bad "--block" "%d bytes is not a power of two from %d to 256" block
        Memsim.Trace.word_bytes
    else if block > cache then
      bad "--block" "%d-byte blocks do not fit a %d-byte cache" block cache
    else `Ok (cache, block)
  in
  Term.(ret (const check $ cache_arg $ block_arg))

let policy_arg =
  Arg.(value & opt policy_conv Memsim.Cache.Write_validate
       & info [ "policy" ] ~docv:"POLICY" ~doc:"Write-miss policy")

let hier_arg =
  Arg.(value & opt (some hier_conv) None
       & info [ "hier" ] ~docv:"CPU"
           ~doc:"Simulate a full 3-level hierarchy preset (nhm, ivb, hsw, \
                 skl, cfl) through the fused miss-stream engine instead of \
                 the single simulated cache; --cache/--block are ignored")

let gc_arg =
  Arg.(value & opt gc_conv Vscheme.Machine.No_gc
       & info [ "gc" ] ~docv:"GC" ~doc:"Collector: none, cheney:SIZE, gen:NURSERY:OLD, marksweep:NURSERY:OLD")

let scale_arg =
  Arg.(value & opt (some string) None
       & info [ "scale" ] ~docv:"N"
           ~doc:"Workload scale (a positive integer; default each \
                 workload's own times \\$(b,REPRO_SCALE))")

let heap_arg =
  Arg.(value & opt (some size_conv) None
       & info [ "heap" ] ~docv:"SIZE"
           ~doc:"Dynamic-area capacity the workload runs under, or for \
                 `repro check' the one the trace was recorded under \
                 (default 48M times \\$(b,REPRO_SCALE))")

let json_arg =
  Arg.(value & opt (some string) None
       & info [ "json" ] ~docv:"FILE"
           ~doc:"Write machine-readable findings to $(docv) (`-' for stdout)")

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Write a JSON telemetry document (meta, per-phase cache and \
                 GC counters, event timeline) to $(docv)")

let trace_events_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-events" ] ~docv:"FILE"
           ~doc:"Write the event timeline in Chrome trace-event format to \
                 $(docv) (load in chrome://tracing or Perfetto)")

(* Shared by `repro replay' and `repro serve'. *)
let checkpoint_every_arg =
  Arg.(value & opt (some string) None
       & info [ "checkpoint-every" ] ~docv:"EVENTS"
           ~doc:"Replay events between checkpoints (a positive integer; \
                 default: the sweep's own cadence)")

let jobs_arg =
  Arg.(value & opt (some string) None
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Worker domains (a positive integer; default: \
                 \\$(b,REPRO_JOBS), else 1).  An experiment replays one \
                 recording at a time and claims its caches across the \
                 domains; several workloads record one per domain.  \
                 Results are parallelism-invariant: per-cache statistics \
                 are bit-identical to a serial sweep")

let experiments_cmd =
  Cmd.v (Cmd.info "experiments" ~doc:"List the paper's experiments")
    Term.(const list_experiments $ const ())

let run_cmd =
  let ids =
    Arg.(value & pos_all string []
         & info [] ~docv:"TARGET"
             ~doc:"Experiment ids and/or workload names (default: all \
                   experiments)")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run experiments (print their tables/figures) or workloads \
             through the simulated cache; REPRO_SCALE lengthens the runs")
    Term.(const run_targets $ ids $ hier_arg $ geometry_arg
          $ policy_arg $ gc_arg $ scale_arg $ metrics_arg $ trace_events_arg
          $ jobs_arg)

let scheme_cmd =
  let file =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Scheme source file")
  in
  let expr =
    Arg.(value & opt (some string) None & info [ "e"; "expr" ] ~docv:"EXPR" ~doc:"Evaluate $(docv) instead of a file")
  in
  let heap =
    Arg.(value & opt size_conv (64 * 1024 * 1024)
         & info [ "heap" ] ~docv:"SIZE" ~doc:"Dynamic-area capacity for --gc none")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print run statistics after the result")
  in
  Cmd.v
    (Cmd.info "scheme" ~doc:"Run a Scheme program on the vscheme machine")
    Term.(const run_scheme $ file $ expr $ gc_arg $ heap $ stats)

let workloads_cmd =
  Cmd.v (Cmd.info "workloads" ~doc:"List the five test-program workloads")
    Term.(const list_workloads $ const ())

let record_cmd =
  let workload_arg =
    Arg.(non_empty & pos_all string []
         & info [] ~docv:"WORKLOAD"
             ~doc:"Workload name(s).  With several, the independent runs \
                   are sharded across --jobs domains and each trace is \
                   written to FILE.$(docv)")
  in
  let out =
    Arg.(value & opt string "trace.bin" & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output trace file")
  in
  let format =
    let format_conv =
      Arg.enum
        (List.map
           (fun f -> (Memsim.Recording.format_label f, f))
           [ Memsim.Recording.V2; Memsim.Recording.V3 ])
    in
    Arg.(value & opt format_conv Memsim.Recording.V2
         & info [ "format" ] ~docv:"FMT"
             ~doc:"On-disk format: v2 (delta+varint, default) or v3 \
                   (mmap-native fixed 8 bytes/event, zero-copy load); \
                   `repro replay' loads both")
  in
  let attr =
    Arg.(value & opt (some string) None
         & info [ "attr" ] ~docv:"FILE"
             ~doc:"Also capture the attribution side table (region-map \
                   epochs, allocation sites) and save it to $(docv); \
                   `repro profile --trace ... --attr $(docv)' replays the \
                   saved trace fully attributed")
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:"Record workload reference traces to files (several workloads \
             shard across --jobs domains)")
    Term.(const record $ workload_arg $ out $ scale_arg $ format $ gc_arg
          $ heap_arg $ attr $ jobs_arg)

let replay_cmd =
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Trace file from `repro record'")
  in
  let checkpoint =
    Arg.(value & opt (some string) None
         & info [ "checkpoint" ] ~docv:"FILE"
             ~doc:"Periodically snapshot the cache state and replay cursor \
                   to $(docv) (written atomically), and resume from it when \
                   it already exists: a killed replay continues \
                   bit-identically instead of starting over")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Replay a recorded trace through a cache configuration, \
             optionally checkpoint/resumable; --metrics writes its \
             telemetry document (per-phase cache counters plus GC spans \
             reconstructed from the trace's phase bits)")
    Term.(const replay $ path $ hier_arg $ geometry_arg $ policy_arg
          $ checkpoint $ checkpoint_every_arg $ metrics_arg $ trace_events_arg)

let check_cmd =
  let files =
    Arg.(value & pos_all string []
         & info [] ~docv:"FILE"
             ~doc:"Trace recordings from `repro record' and/or telemetry \
                   documents (*.json) from --metrics")
  in
  let raw =
    Arg.(value & flag
         & info [ "raw" ]
             ~doc:"Skip the geometry-dependent stream rules (address range, \
                   allocation monotonicity, semispace discipline); only \
                   file well-formedness, alignment and phase structure are \
                   checked")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Statically verify recordings and telemetry documents without \
             sweeping: format well-formedness, addresses within the \
             declared heap geometry, allocation-pointer monotonicity, \
             Cheney semispace discipline, phase structure, and \
             span-nesting of telemetry events.  With one trace and one \
             document, the document's run.* counters are cross-checked \
             against the stream.  Exits 1 on any error finding")
    Term.(const check_files $ files $ gc_arg $ heap_arg $ raw $ json_arg)

let profile_cmd =
  let workload =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"WORKLOAD"
             ~doc:"Workload to run and profile (omit when replaying a saved \
                   trace with --trace/--attr)")
  in
  let trace =
    Arg.(value & opt (some file) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Saved recording to profile instead of running a workload \
                   (requires --attr)")
  in
  let attr =
    Arg.(value & opt (some file) None
         & info [ "attr" ] ~docv:"FILE"
             ~doc:"Attribution sidecar from `repro record --attr'")
  in
  let sample =
    Arg.(value & opt string "1"
         & info [ "sample" ] ~docv:"N"
             ~doc:"Attribute only every $(docv)th chunk of the trace (a \
                   positive integer); the rest replay through the plain \
                   fast path, so aggregate cache statistics stay exact \
                   while attribution overhead drops")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the full profile as JSON to $(docv) (`-' for \
                   stdout): region x phase cells, ranked allocation sites, \
                   heat and region-time grids")
  in
  let folded =
    Arg.(value & opt (some string) None
         & info [ "folded" ] ~docv:"FILE"
             ~doc:"Write collapsed-stack lines (workload;site weight) to \
                   $(docv) (`-' for stdout), ready for flamegraph.pl or \
                   speedscope")
  in
  let no_heatmap =
    Arg.(value & flag
         & info [ "no-heatmap" ] ~doc:"Skip the ASCII miss-map rendering")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Attribute every cache miss, fetch and write-back of a workload \
             (or saved trace) to its heap region, GC phase and allocation \
             site, on the chunked sweep fast path.  Prints region x phase \
             and top-site tables plus an ASCII miss map; exports JSON, \
             flamegraph folds and Chrome-trace miss overlays")
    Term.(const profile_target $ workload $ trace $ attr $ geometry_arg
          $ policy_arg $ gc_arg $ heap_arg $ scale_arg $ sample $ json
          $ folded $ trace_events_arg $ no_heatmap)

(* ------------------------------------------------------------------ *)
(* golden                                                             *)
(* ------------------------------------------------------------------ *)

let golden_dir_arg =
  Arg.(value & opt string "golden"
       & info [ "dir" ] ~docv:"DIR"
           ~doc:"Directory holding the manifest and fixtures (default \
                 ./golden)")

let golden_record dir =
  let ppf = Format.std_formatter in
  Golden.Suite.record ~dir ppf;
  0

let golden_verify dir summary json =
  let ppf = Format.std_formatter in
  let vs = Golden.Suite.verify ~dir ppf in
  let write path content =
    Option.fold ~none:0 ~some:(fun p -> write_out p content) path
  in
  let rc_summary =
    write summary (Format.asprintf "%a" Golden.Suite.summary_markdown vs)
  in
  let rc_json =
    write json
      (Obs.Json.to_pretty_string
         (Check.Report.to_json (List.map Golden.Suite.report vs))
       ^ "\n")
  in
  let failed = List.filter (fun v -> not (Golden.Suite.passed v)) vs in
  if failed = [] then
    Format.fprintf ppf "golden: all %d runs match@." (List.length vs)
  else
    Format.fprintf ppf "golden: %d of %d runs FAILED@." (List.length failed)
      (List.length vs);
  max (max rc_summary rc_json) (if failed = [] then 0 else 1)

let golden_cmd =
  let record =
    Cmd.v
      (Cmd.info "record"
         ~doc:"Run the default manifest suite and (re)write the golden \
               fixtures under --dir.  Commit the result; `repro golden \
               verify' then gates on it")
      Term.(const golden_record $ golden_dir_arg)
  in
  let verify =
    let summary =
      Arg.(value & opt (some string) None
           & info [ "summary" ] ~docv:"FILE"
               ~doc:"Append a GitHub-flavoured Markdown delta table to \
                     $(docv) (`-' for stdout); suitable for \
                     \\$(b,GITHUB_STEP_SUMMARY)")
    in
    Cmd.v
      (Cmd.info "verify"
         ~doc:"Re-measure every run in the committed manifest and compare \
               against the golden fixtures: exact counters must match \
               bit-for-bit, derived ratios within a 1e-9 relative band.  \
               Exits 1 on any mismatch, with findings locating the run, \
               geometry and field")
      Term.(const golden_verify $ golden_dir_arg $ summary $ json_arg)
  in
  Cmd.group
    (Cmd.info "golden"
       ~doc:"Deterministic golden-run regression suite: record committed \
             reference fixtures, verify current behaviour against them")
    [ record; verify ]

(* ------------------------------------------------------------------ *)
(* serve / client                                                     *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  Arg.(value & opt string "repro-serve.sock"
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket the daemon listens on (default \
                 ./repro-serve.sock)")

let spool_arg =
  Arg.(value & opt string "serve-spool"
       & info [ "dir" ] ~docv:"DIR"
           ~doc:"Spool directory: event journal, content-addressed result \
                 cache, and per-job sweep checkpoints (default \
                 ./serve-spool)")

let serve_daemon socket dir workers checkpoint_every =
  with_count "--workers" workers @@ fun workers ->
  with_opt_count "--checkpoint-every" checkpoint_every
  @@ fun checkpoint_every ->
  let config = { Serve.Sched.default_config with workers; checkpoint_every } in
  let sched = Serve.Sched.create ~config dir in
  let server = Serve.Server.create ~socket sched in
  List.iter
    (fun s ->
      try
        Sys.set_signal s
          (Sys.Signal_handle
             (fun _ -> Serve.Server.request_shutdown server ~drain:false))
      with Invalid_argument _ -> ())
    [ Sys.sigterm; Sys.sigint ];
  Printf.printf "repro serve: listening on %s (%d workers, spool %s)\n%!"
    socket workers dir;
  Serve.Server.run server;
  Printf.printf "repro serve: stopped\n%!";
  0

let serve_cmd =
  let workers =
    Arg.(value
         & opt string (string_of_int Serve.Sched.default_config.Serve.Sched.workers)
         & info [ "workers" ] ~docv:"N"
             ~doc:"Worker domains in the pool (a positive integer)")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the sweep daemon: accept manifest jobs over a socket, \
             schedule them in submission order across a worker-domain \
             pool, checkpoint running sweeps so a killed worker's job resumes \
             rather than restarts, and serve repeat submissions from a \
             content-hash result cache")
    Term.(const serve_daemon $ socket_arg $ spool_arg $ workers
          $ checkpoint_every_arg)

(* --- client helpers --- *)

let with_conn socket f =
  match Serve.Client.connect_unix socket with
  | conn ->
    Fun.protect ~finally:(fun () -> Serve.Client.close conn) (fun () -> f conn)
  | exception Unix.Unix_error (e, _, _) ->
    Printf.eprintf "repro client: cannot connect to %s: %s\n" socket
      (Unix.error_message e);
    1

let read_whole_file path =
  if path = "-" then In_channel.input_all stdin
  else In_channel.with_open_bin path In_channel.input_all

let client_submit socket wait manifest files =
  match
    (match manifest with
     | None -> []
     | Some path ->
       let m = Golden.Manifest.load path in
       List.map
         (fun r -> Sexp.Datum.to_string (Golden.Manifest.run_to_datum r))
         m.Golden.Manifest.runs)
    @ List.concat_map
        (fun path ->
          List.map Sexp.Datum.to_string
            (Sexp.Parser.parse_all ~filename:path (read_whole_file path)))
        files
  with
  | exception Sexp.Parser.Error (msg, _) ->
    Printf.eprintf "repro client submit: parse error: %s\n" msg;
    1
  | exception Sexp.Lexer.Error (msg, _) ->
    Printf.eprintf "repro client submit: lex error: %s\n" msg;
    1
  | exception Golden.Sx.Parse_error msg ->
    Printf.eprintf "repro client submit: %s\n" msg;
    1
  | [] ->
    Printf.eprintf "repro client submit: nothing to submit\n";
    1
  | texts ->
    with_conn socket (fun conn ->
      let failed = ref 0 in
      List.iter
        (fun run_text ->
          match
            Serve.Client.request conn (Serve.Proto.Submit { run_text; wait })
          with
          | Ok reply -> print_endline (Obs.Json.to_string reply)
          | Error msg ->
            incr failed;
            Printf.eprintf "submit failed: %s\n" msg)
        texts;
      if !failed = 0 then 0 else 1)

let client_simple socket req =
  with_conn socket (fun conn ->
    match Serve.Client.request conn req with
    | Ok reply ->
      print_endline (Obs.Json.to_string reply);
      0
    | Error msg ->
      Printf.eprintf "repro client: %s\n" msg;
      1)

let client_result socket id out =
  with_conn socket (fun conn ->
    match Serve.Client.request conn (Serve.Proto.Result id) with
    | Error msg ->
      Printf.eprintf "repro client: %s\n" msg;
      1
    | Ok reply -> (
      match Obs.Json.member "fixture" reply with
      | Some (Obs.Json.Str text) ->
        write_out (Option.value out ~default:"-") (text ^ "\n")
      | Some _ | None ->
        Printf.eprintf "repro client: reply without a fixture\n";
        1))

let client_stats socket json =
  with_conn socket (fun conn ->
    match Serve.Client.request conn Serve.Proto.Stats with
    | Error msg ->
      Printf.eprintf "repro client: %s\n" msg;
      1
    | Ok reply ->
      write_out (Option.value json ~default:"-")
        (Obs.Json.to_pretty_string reply ^ "\n"))

let client_ping socket timeout =
  if Serve.Client.wait_ready ~timeout_s:timeout socket then begin
    Printf.printf "ready\n";
    0
  end
  else begin
    Printf.eprintf "repro client: %s not answering after %.1fs\n" socket
      timeout;
    1
  end

let live_jobs stats_reply =
  let jobs = Obs.Json.member "jobs" stats_reply in
  let count st =
    match Option.bind jobs (Obs.Json.member st) with
    | Some (Obs.Json.Int n) -> n
    | Some _ | None -> 0
  in
  count "queued" + count "running"

let client_drain socket timeout =
  with_conn socket (fun conn ->
    let deadline = Unix.gettimeofday () +. timeout in
    let rec poll () =
      match Serve.Client.request conn Serve.Proto.Stats with
      | Error msg ->
        Printf.eprintf "repro client: %s\n" msg;
        1
      | Ok reply ->
        if live_jobs reply = 0 then begin
          Printf.printf "drained\n";
          0
        end
        else if Unix.gettimeofday () >= deadline then begin
          Printf.eprintf "repro client: still %d live jobs after %.1fs\n"
            (live_jobs reply) timeout;
          1
        end
        else begin
          ignore (Unix.select [] [] [] 0.2);
          poll ()
        end
    in
    poll ())

(* Synthetic smoke manifests for load generation: tiny single-config
   grids derived from the committed smoke suite, distinct in content
   (cache geometry), so [--distinct K] exercises exactly K sweeps and
   every further submission is a cache hit. *)
let synthetic_run_text v =
  let base =
    match Golden.Manifest.default.Golden.Manifest.runs with
    | r :: _ -> r
    | [] -> assert false
  in
  let sizes = [| 16384; 32768; 65536; 131072; 262144; 524288 |] in
  let blocks = [| 16; 32; 64; 128 |] in
  let a = sizes.(v mod 6) and b = sizes.(v / 6 mod 6) in
  let cache_sizes = if a = b then [ a ] else [ a; b ] in
  let run =
    { base with
      Golden.Manifest.name = Printf.sprintf "synthetic-%03d" v;
      cache_sizes;
      block_sizes = [ blocks.(v / 36 mod 4) ];
      jobs = 1
    }
  in
  Sexp.Datum.to_string (Golden.Manifest.run_to_datum run)

let client_load socket n distinct wait =
  with_count "--count" n @@ fun n ->
  if distinct < 1 || distinct > 144 then begin
    Printf.eprintf "repro client load: --distinct must be in [1, 144]\n";
    1
  end
  else
    with_conn socket (fun conn ->
      let failed = ref 0 in
      for i = 0 to n - 1 do
        let run_text = synthetic_run_text (i mod distinct) in
        match
          Serve.Client.request conn (Serve.Proto.Submit { run_text; wait })
        with
        | Ok _ -> ()
        | Error msg ->
          incr failed;
          Printf.eprintf "submit %d failed: %s\n" i msg
      done;
      Printf.printf "submitted %d jobs (%d distinct configs, %d failures)\n"
        n distinct !failed;
      if !failed = 0 then 0 else 1)

(* Offline differential proof over a spool: every job the journal
   shows was resumed from a checkpoint and then completed by sweeping
   (not from the cache) is re-measured uninterrupted and compared
   bit-for-bit against the fixture the daemon stored. *)
let client_verify_resumed dir require =
  let candidates = (Check.Serve_check.scan dir).Check.Serve_check.resumed in
  if List.length candidates < require then begin
    Printf.eprintf
      "verify-resumed: only %d resumed-and-completed jobs in %s (need %d)\n"
      (List.length candidates) dir require;
    1
  end
  else begin
    let failures = ref 0 in
    List.iter
      (fun (id, run_text) ->
        let run =
          Golden.Manifest.run_of_datum ~file:"<journal>"
            (Sexp.Parser.parse_one ~filename:"<journal>" run_text)
        in
        let hash = Golden.Manifest.content_hash run in
        let path =
          Filename.concat (Filename.concat dir "results") (hash ^ ".sexp")
        in
        match Golden.Fixture.load path with
        | exception Golden.Sx.Parse_error msg ->
          incr failures;
          Printf.printf "job %d (%s): stored result unreadable: %s\n" id
            run.Golden.Manifest.name msg
        | stored ->
          let fresh = Golden.Fixture.measure run in
          let findings =
            Golden.Fixture.compare ~file:path ~expected:fresh ~actual:stored
              ()
          in
          if Check.Finding.has_errors findings then begin
            incr failures;
            Printf.printf "job %d (%s): RESUMED RESULT DIFFERS\n" id
              run.Golden.Manifest.name;
            List.iter
              (fun f -> Format.printf "  %a@." Check.Finding.pp f)
              findings
          end
          else
            Printf.printf "job %d (%s): resumed result bit-identical\n" id
              run.Golden.Manifest.name)
      candidates;
    if !failures = 0 then begin
      Printf.printf "verify-resumed: %d resumed jobs verified\n"
        (List.length candidates);
      0
    end
    else 1
  end

let job_arg =
  Arg.(required & pos 0 (some int) None & info [] ~docv:"JOB" ~doc:"Job id")

let client_cmd =
  let submit =
    let wait =
      Arg.(value & flag
           & info [ "wait" ] ~doc:"Block until each job is terminal")
    in
    let manifest =
      Arg.(value & opt (some file) None
           & info [ "manifest" ] ~docv:"FILE"
               ~doc:"Submit every run of a golden manifest file")
    in
    let files =
      Arg.(value & pos_all string []
           & info [] ~docv:"FILE"
               ~doc:"Files of (run ...) forms to submit (`-' for stdin)")
    in
    Cmd.v
      (Cmd.info "submit" ~doc:"Submit manifest runs as jobs")
      Term.(const client_submit $ socket_arg $ wait $ manifest $ files)
  in
  let status =
    Cmd.v (Cmd.info "status" ~doc:"One job's state snapshot")
      Term.(const (fun s id -> client_simple s (Serve.Proto.Status id))
            $ socket_arg $ job_arg)
  in
  let result =
    let out =
      Arg.(value & opt (some string) None
           & info [ "o"; "output" ] ~docv:"FILE"
               ~doc:"Write the fixture sexp to $(docv) instead of stdout")
    in
    Cmd.v (Cmd.info "result" ~doc:"Fetch a finished job's fixture")
      Term.(const client_result $ socket_arg $ job_arg $ out)
  in
  let cancel =
    Cmd.v (Cmd.info "cancel" ~doc:"Cancel a queued or running job")
      Term.(const (fun s id -> client_simple s (Serve.Proto.Cancel id))
            $ socket_arg $ job_arg)
  in
  let stats =
    let json =
      Arg.(value & opt (some string) None
           & info [ "json" ] ~docv:"FILE"
               ~doc:"Write the stats document to $(docv)")
    in
    Cmd.v
      (Cmd.info "stats"
         ~doc:"Scheduler statistics: per-state job counts, counters \
               (cache hits, resumes, requeues), latency quantiles")
      Term.(const client_stats $ socket_arg $ json)
  in
  let shutdown =
    let no_drain =
      Arg.(value & flag
           & info [ "no-drain" ]
               ~doc:"Cancel queued jobs and interrupt running ones instead \
                     of finishing the queue first")
    in
    Cmd.v (Cmd.info "shutdown" ~doc:"Stop the daemon")
      Term.(const (fun s nd ->
              client_simple s (Serve.Proto.Shutdown { drain = not nd }))
            $ socket_arg $ no_drain)
  in
  let ping =
    let timeout =
      Arg.(value & opt float 10.0
           & info [ "timeout" ] ~docv:"S" ~doc:"Give up after $(docv) seconds")
    in
    Cmd.v (Cmd.info "ping" ~doc:"Wait until the daemon answers")
      Term.(const client_ping $ socket_arg $ timeout)
  in
  let drain =
    let timeout =
      Arg.(value & opt float 600.0
           & info [ "timeout" ] ~docv:"S" ~doc:"Give up after $(docv) seconds")
    in
    Cmd.v
      (Cmd.info "drain" ~doc:"Poll until no job is queued or running")
      Term.(const client_drain $ socket_arg $ timeout)
  in
  let load =
    let n =
      Arg.(value & opt string "100"
           & info [ "n"; "count" ] ~docv:"N"
               ~doc:"Total submissions (a positive integer)")
    in
    let distinct =
      Arg.(value & opt int 20
           & info [ "distinct" ] ~docv:"K"
               ~doc:"Distinct configurations among them (the rest are \
                     content-hash repeats, served from the result cache)")
    in
    let wait =
      Arg.(value & flag & info [ "wait" ] ~doc:"Block per submission")
    in
    Cmd.v
      (Cmd.info "load"
         ~doc:"Submit synthetic smoke manifests for soak and load testing")
      Term.(const client_load $ socket_arg $ n $ distinct $ wait)
  in
  let verify_resumed =
    let require =
      Arg.(value & opt int 0
           & info [ "require" ] ~docv:"N"
               ~doc:"Fail unless at least $(docv) resumed jobs are found")
    in
    Cmd.v
      (Cmd.info "verify-resumed"
         ~doc:"Offline differential proof over a spool directory: \
               re-measure every job that resumed from a checkpoint, \
               uninterrupted, and compare bit-for-bit against the fixture \
               the daemon stored")
      Term.(const client_verify_resumed $ spool_arg $ require)
  in
  Cmd.group
    (Cmd.info "client" ~doc:"Talk to a running `repro serve' daemon")
    [ submit; status; result; cancel; stats; shutdown; ping; drain; load;
      verify_resumed ]

let main =
  Cmd.group
    (Cmd.info "repro" ~version:"1.0.0"
       ~doc:"Cache Performance of Garbage-Collected Programs (PLDI 1994), \
             reproduced")
    [ experiments_cmd; run_cmd; scheme_cmd; workloads_cmd; record_cmd;
      replay_cmd; profile_cmd; check_cmd; golden_cmd;
      serve_cmd; client_cmd ]

(* REPRO_SCALE and REPRO_JOBS are read lazily, deep inside commands:
   refuse a bad value before any command runs. *)
let () =
  match (Core.Runner.scale_factor (), Core.Runner.jobs ()) with
  | exception Failure msg ->
    prerr_endline ("repro: " ^ msg);
    exit 1
  | _ -> exit (Cmd.eval' main)
