type 'machine outcome = {
  workload : Workloads.Workload.t;
  scale : int;
  value : string;
  refs : int;
  collector_refs : int;
  stats : Vscheme.Machine.run_stats;
  machine : 'machine;
}

type result = Vscheme.Machine.t outcome
type summary = unit outcome

(* Every VM run and every memo hit in the process, from any domain. *)
let productions = Atomic.make 0
let reuses = Atomic.make 0

let base_scale w =
  match w.Workloads.Workload.name with
  | "selfcomp" -> 12
  | "prover" -> 7
  | "lred" -> 1
  | "nbody" -> 6
  | "mexpr" -> 2
  | _ -> 1

(* Unset means 1; a value that is not a positive integer is refused
   rather than read as 1, so a mistyped scale never prints another
   scale's tables. *)
let env_count name =
  match Sys.getenv_opt name with
  | None -> 1
  | Some s -> (
    match Units.parse_count s with
    | Ok n -> n
    | Error msg -> failwith (Printf.sprintf "%s: %s" name msg))

let scale_factor () = env_count "REPRO_SCALE"

let jobs_override = ref None

let set_jobs n =
  if n < 1 then invalid_arg (Printf.sprintf "Runner.set_jobs: %d" n);
  jobs_override := Some n

let jobs () =
  match !jobs_override with Some n -> n | None -> env_count "REPRO_JOBS"

let layout machine ~dynamic_base =
  let heap = Vscheme.Machine.heap machine in
  let words =
    if dynamic_base then Vscheme.Heap.dynamic_base heap
    else Vscheme.Heap.stack_base heap
  in
  words * Memsim.Trace.word_bytes

(* [(mutator, collector)] counted from the phase bits of a recording —
   the closure-sink path's split, independent of [Mem]'s phase-flip
   counters. *)
let phase_counts recording =
  let col = ref 0 in
  Memsim.Recording.replay recording
    { Memsim.Trace.access =
        (fun _ _ phase -> if phase = Memsim.Trace.Collector then incr col)
    };
  (Memsim.Recording.length recording - !col, !col)

let resolve_heap_bytes = function
  | Some b -> b
  | None -> 48 * 1024 * 1024 * scale_factor ()

let resolve_scale w = function
  | Some s -> s
  | None -> base_scale w * scale_factor ()

let record ?(gc = Vscheme.Machine.No_gc) ?heap_bytes
    ?(pathological_layout = false) ?events ?scale ?(direct = true) ?attr w =
  if (not direct) && Option.is_some attr then
    invalid_arg "Runner.record: ~attr needs the direct path";
  let heap_bytes = resolve_heap_bytes heap_bytes in
  let scale = resolve_scale w scale in
  Atomic.incr productions;
  let recording = Memsim.Recording.create () in
  (* The direct path appends packed events straight into the recording
     slabs; [~direct:false] routes every event through the recording's
     generic closure sink instead — the direct writer's oracle. *)
  let cfg =
    { Vscheme.Machine.default_config with
      gc;
      heap_bytes;
      pathological_layout;
      sink =
        (if direct then Memsim.Trace.null
         else Memsim.Recording.sink recording);
      telemetry = events;
      record = (if direct then Some recording else None);
      attr
    }
  in
  let mark kind name =
    match events with
    | None -> ()
    | Some tl -> Obs.Events.emit tl ~cat:"phase" kind name
  in
  let machine = Vscheme.Machine.create cfg in
  mark Obs.Events.Begin "phase.load";
  Workloads.Workload.load machine w;
  mark Obs.Events.End "phase.load";
  mark Obs.Events.Begin "phase.run";
  let value = Workloads.Workload.run machine w ~scale in
  mark Obs.Events.End "phase.run";
  let mut, col =
    if direct then begin
      let mem = Vscheme.Machine.mem machine in
      Vscheme.Mem.finish_recording mem;
      Vscheme.Mem.recorded_counts mem
    end
    else phase_counts recording
  in
  ( { workload = w;
      scale;
      value = Vscheme.Machine.value_to_string machine value;
      refs = mut;
      collector_refs = col;
      stats = Vscheme.Machine.stats machine;
      machine
    },
    recording )

(* --- Trace memo ----------------------------------------------------------- *)

(* A kept trace's note: the run that produced it, without its machine
   (whose heap the memo must not keep alive). *)
type Memsim.Recording.note += Run of summary

(* Every input that reaches the VM.  The heap size stays in the key
   even for collected runs, where it does not change the trace. *)
let memo_key w ~gc ~heap_bytes ~pathological_layout ~scale =
  Printf.sprintf "runner %s scale=%d gc=%s heap=%d pathological=%b"
    w.Workloads.Workload.name scale (Units.format_gc gc) heap_bytes
    pathological_layout

let lease ?(gc = Vscheme.Machine.No_gc) ?heap_bytes
    ?(pathological_layout = false) ?scale w =
  let heap_bytes = resolve_heap_bytes heap_bytes in
  let scale = resolve_scale w scale in
  let key = memo_key w ~gc ~heap_bytes ~pathological_layout ~scale in
  let produce () =
    let r, recording = record ~gc ~heap_bytes ~pathological_layout ~scale w in
    let summary = { r with machine = () } in
    Memsim.Recording.keep ~key (Run summary) recording;
    (summary, recording)
  in
  match Memsim.Recording.lease key with
  | Some (recording, Run summary) ->
    Atomic.incr reuses;
    (summary, recording)
  | Some (recording, _) ->
    Memsim.Recording.release recording;
    produce ()
  | None -> produce ()

let with_lease ?gc ?heap_bytes ?pathological_layout ?scale w f =
  let summary, recording =
    lease ?gc ?heap_bytes ?pathological_layout ?scale w
  in
  Fun.protect
    ~finally:(fun () -> Memsim.Recording.release recording)
    (fun () -> f summary recording)

let counters () =
  [ ("runner.productions", Atomic.get productions);
    ("runner.reuses", Atomic.get reuses);
    ( "runner.evictions",
      (Memsim.Recording.pool_stats ()).Memsim.Recording.evictions )
  ]
