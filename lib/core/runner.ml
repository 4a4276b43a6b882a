type result = {
  workload : Workloads.Workload.t;
  scale : int;
  value : string;
  refs : int;
  collector_refs : int;
  stats : Vscheme.Machine.run_stats;
  machine : Vscheme.Machine.t;
}

let base_scale w =
  match w.Workloads.Workload.name with
  | "selfcomp" -> 12
  | "prover" -> 7
  | "lred" -> 1
  | "nbody" -> 6
  | "mexpr" -> 2
  | _ -> 1

let scale_factor () =
  match Sys.getenv_opt "REPRO_SCALE" with
  | None -> 1
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n >= 1 -> n
    | Some _ | None -> 1)

let jobs_override = ref None

let set_jobs n = jobs_override := Some (max 1 n)

let jobs () =
  match !jobs_override with
  | Some n -> n
  | None -> (
    match Sys.getenv_opt "REPRO_JOBS" with
    | None -> 1
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None -> 1))

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

let record ?(gc = Vscheme.Machine.No_gc) ?heap_bytes
    ?(pathological_layout = false) ?events ?scale ?(direct = true) ?attr w =
  if (not direct) && Option.is_some attr then
    invalid_arg "Runner.record: ~attr needs the direct path";
  let heap_bytes =
    match heap_bytes with
    | Some b -> b
    | None -> 48 * 1024 * 1024 * scale_factor ()
  in
  let scale =
    match scale with
    | Some s -> s
    | None -> base_scale w * scale_factor ()
  in
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

let run ?gc ?events ?scale w =
  let r, recording = record ?gc ?events ?scale w in
  Memsim.Recording.release recording;
  r

(* Trace-once-sweep-many: replay a recording into a sweep grid with
   the configured job count, publishing wall time and throughput to the
   default metrics registry so telemetry exports track the sweep
   engine's trajectory. *)
let sweep_recording ?(label = "sweep") sweep recording =
  let jobs = jobs () in
  let events = Memsim.Recording.length recording in
  let t0 = Unix.gettimeofday () in
  Memsim.Sweep.run_parallel ~jobs sweep recording;
  let dt = Unix.gettimeofday () -. t0 in
  let reg = Obs.Metrics.default in
  let set name v = Obs.Metrics.Gauge.set (Obs.Metrics.gauge reg name) v in
  set (label ^ ".wall_s") dt;
  set (label ^ ".jobs") (float_of_int jobs);
  set (label ^ ".events") (float_of_int events);
  let caches = Array.length (Memsim.Sweep.hiers sweep) in
  if dt > 0.0 then begin
    let rate = float_of_int (events * caches) /. dt in
    set (label ^ ".events_per_s") rate;
    (* Same number under the name the producer-gap gauge pairs with
       [<label>.producer_events_per_s] (see [record_grid]). *)
    set (label ^ ".consumer_events_per_s") rate
  end

(* Sharded domain-parallel producer: one VM run is inherently serial,
   so the unit of parallelism is a whole grid cell (workload +
   collector + scale).  Worker domains claim cells with an atomic
   cursor; every cell gets its own machine and its own recording, so
   no trace state is shared and the output indexed by input order is
   bit-identical to recording the cells one after another serially. *)

type cell = {
  cell_workload : Workloads.Workload.t;
  cell_gc : Vscheme.Machine.gc_spec option;
  cell_heap_bytes : int option;
  cell_pathological_layout : bool option;
  cell_scale : int option;
  cell_label : string option;
}

let cell ?gc ?heap_bytes ?pathological_layout ?scale ?label w =
  { cell_workload = w;
    cell_gc = gc;
    cell_heap_bytes = heap_bytes;
    cell_pathological_layout = pathological_layout;
    cell_scale = scale;
    cell_label = label
  }

let record_grid ?jobs:requested cell_list =
  let cells = Array.of_list cell_list in
  let n = Array.length cells in
  let jobs =
    let j = match requested with Some j -> max 1 j | None -> jobs () in
    min j (max 1 n)
  in
  (* Claimed off the sweep engine's pool; each slot is written by
     exactly the one domain that claimed its index. *)
  let slots = Array.make n None in
  Memsim.Sweep.parallel_for ~jobs n (fun i ->
      let c = cells.(i) in
      let t0 = Unix.gettimeofday () in
      let r, recording =
        record ?gc:c.cell_gc ?heap_bytes:c.cell_heap_bytes
          ?pathological_layout:c.cell_pathological_layout ?scale:c.cell_scale
          c.cell_workload
      in
      slots.(i) <- Some (r, recording, Unix.gettimeofday () -. t0));
  (* Gauges are published from this domain only, after the joins: the
     metrics registry is not synchronized. *)
  let reg = Obs.Metrics.default in
  let set name v = Obs.Metrics.Gauge.set (Obs.Metrics.gauge reg name) v in
  Array.iteri
    (fun i c ->
      match (c.cell_label, slots.(i)) with
      | Some label, Some (_, recording, dt) ->
        let events = Memsim.Recording.length recording in
        set (label ^ ".produce_wall_s") dt;
        set (label ^ ".jobs") (float_of_int jobs);
        set (label ^ ".events") (float_of_int events);
        if dt > 0.0 then
          set (label ^ ".producer_events_per_s") (float_of_int events /. dt)
      | _ -> ())
    cells;
  Array.map
    (function
      | Some (r, recording, _) -> (r, recording)
      | None -> assert false)
    slots
