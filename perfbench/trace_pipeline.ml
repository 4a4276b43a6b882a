(* trace-pipeline: the `repro record --gc ... -> save -> load -> repro
   replay --hier` flow.

   Each pass takes every workload under the Cheney and the
   generational collector through one operation: record, save in v2
   and in v3, load both back, and replay the v2-loaded trace through
   the five fused hierarchy presets.  The round trips are checked
   against the recording with [Recording.equal] outside the timed
   operation.

   The operation holds two jobs a user would run as two commands:
   record-and-save, and load-and-replay.  Loading a v3 file maps it
   instead of decoding it; that load is the workload's "hit". *)

let name = "trace-pipeline"
let scale = 1

(* Wall seconds of one pass, kernels and checks included. *)
let nominal_pass_s = 10.

let cheney_bytes = function
  | "selfcomp" | "prover" -> 48 * 1024
  | "lred" -> 256 * 1024
  | _ -> 64 * 1024

let collectors (w : Workloads.Workload.t) =
  [ ("cheney", Vscheme.Machine.Cheney { semispace_bytes = cheney_bytes w.name });
    ( "gen",
      Vscheme.Machine.Generational
        { nursery_bytes = 64 * 1024; old_bytes = 24 * 1024 * 1024 } ) ]

type counts = {
  mutable events : int;
  mutable collections : int;
  mutable v2_bytes : int;
  mutable hier_events : int;
  mutable l1_misses : int;
  mutable l3_misses : int;
}

type t = {
  cells : (Workloads.Workload.t * string * Vscheme.Machine.gc_spec) list;
  dir : string;
  pass_counts : counts list ref;
}

(* The program's start-up for every cell, as `repro record` does it
   before the workload runs: create the machine under the cell's
   collector (heap, prelude) and load the workload's definitions
   (read, expand, compile, evaluate).  [Runner.record] repeats it in
   the timed phase; here it is set-up cost on its own. *)
let setup env =
  let dir = Filename.concat env.Harness.work_dir "traces" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let cells =
    List.concat_map
      (fun w -> List.map (fun (g, spec) -> (w, g, spec)) (collectors w))
      Workloads.Workload.all
  in
  List.iter
    (fun (w, _, gc) ->
      let m =
        Vscheme.Machine.create
          { Vscheme.Machine.default_config with gc; heap_bytes = 48 * 1024 * 1024 }
      in
      Workloads.Workload.load m w)
    cells;
  { cells; dir; pass_counts = ref [] }

let level_misses (s : Memsim.Cache.stats) = s.misses + s.collector_misses

let hier_digest hs =
  let b = Buffer.create 512 in
  Array.iter
    (fun h ->
      Array.iter
        (fun (s : Memsim.Cache.stats) ->
          Printf.bprintf b "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d;" s.refs
            s.collector_refs s.misses s.collector_misses s.alloc_misses
            s.fetches s.collector_fetches s.writebacks s.collector_writebacks
            s.writes s.collector_writes)
        (Memsim.Hier.stats h);
      Buffer.add_char b '|')
    hs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let file_size path = (Unix.stat path).Unix.st_size

type outputs = {
  result : Core.Runner.result;
  recording : Memsim.Recording.t;
  v2 : Memsim.Recording.t;
  v3 : Memsim.Recording.t;
  hiers : Memsim.Hier.t array;
}

let pass t env _i =
  let c =
    { events = 0; collections = 0; v2_bytes = 0; hier_events = 0;
      l1_misses = 0; l3_misses = 0 }
  in
  let spans = env.Harness.spans in
  List.iter
    (fun ((w : Workloads.Workload.t), gc_name, gc) ->
      let key = Printf.sprintf "%s.%s.%s" name w.name gc_name in
      let f2 = Filename.concat t.dir (key ^ ".v2")
      and f3 = Filename.concat t.dir (key ^ ".v3") in
      let per_event rc = Memsim.Recording.length rc in
      Harness.op env ~name:"pipeline"
        (fun sample ->
          let t_record = Clock.now () in
          let result, recording =
            Spans.call spans ~layer:"vscheme" ~name:"record"
              ~work:(fun (_, rc) -> per_event rc)
              (fun () -> Core.Runner.record ~gc ~scale w)
          in
          let n = per_event recording in
          let save format label path =
            Spans.call spans ~layer:"recording" ~name:label ~work:(fun () -> n)
              (fun () -> Memsim.Recording.save ~format recording path)
          in
          save Memsim.Recording.V2 "save_v2" f2;
          save Memsim.Recording.V3 "save_v3" f3;
          sample Harness.Job (Clock.now () -. t_record);
          let load label path =
            Spans.call spans ~layer:"recording" ~name:label ~work:(fun _ -> n)
              (fun () -> Memsim.Recording.load path)
          in
          let t_replay = Clock.now () in
          let v2 = load "load_v2" f2 in
          let hiers =
            Array.of_list
              (List.map
                 (fun cpu -> Memsim.Hier.create (Memsim.Hier.preset cpu))
                 Memsim.Hier.all_cpus)
          in
          Spans.call spans ~layer:"hier" ~name:"replay" ~work:(fun () -> n)
            (fun () -> Memsim.Sweep.hier_run_serial hiers v2);
          sample Harness.Job (Clock.now () -. t_replay);
          let t_map = Clock.now () in
          let v3 = load "load_v3" f3 in
          sample Harness.Hit (Clock.now () -. t_map);
          { result; recording; v2; v3; hiers })
        (fun o ->
          let n = Memsim.Recording.length o.recording in
          let v2_bytes = file_size f2 in
          let collections = o.result.Core.Runner.stats.Vscheme.Machine.collections in
          c.events <- c.events + n;
          c.collections <- c.collections + collections;
          c.v2_bytes <- c.v2_bytes + v2_bytes;
          c.hier_events <- c.hier_events + n;
          Array.iter
            (fun h ->
              let st = Memsim.Hier.stats h in
              c.l1_misses <- c.l1_misses + level_misses st.(0);
              c.l3_misses <- c.l3_misses + level_misses st.(Array.length st - 1))
            o.hiers;
          let checks =
            [ (fun () -> Harness.expect env (key ^ ".events") (string_of_int n));
              (fun () ->
                Harness.expect env (key ^ ".collections")
                  (string_of_int collections));
              (fun () ->
                Harness.expect env (key ^ ".v2_bytes") (string_of_int v2_bytes));
              (fun () ->
                if file_size f3 = 24 + (8 * n) then Ok ()
                else Error (key ^ ": v3 file is not 24 + 8 bytes per event"));
              (fun () ->
                if Memsim.Recording.equal o.recording o.v2 then Ok ()
                else Error (key ^ ": v2 round trip differs"));
              (fun () ->
                if Memsim.Recording.equal o.recording o.v3 then Ok ()
                else Error (key ^ ": v3 round trip differs"));
              (fun () -> Harness.expect env (key ^ ".hier") (hier_digest o.hiers)) ]
          in
          let outcome = Harness.all checks in
          Memsim.Recording.clear o.recording;
          Memsim.Recording.clear o.v2;
          Sys.remove f2;
          Sys.remove f3;
          outcome))
    (Harness.shuffle env t.cells);
  t.pass_counts := c :: !(t.pass_counts)

let run env ~seconds ~trace =
  let t, setup = Harness.setup env ~setup ~teardown:ignore in
  let passes =
    Harness.pass_count ~seconds ~nominal_pass_s
      ~min_passes:(if trace then 2 else 1)
  in
  let passes, peak_rss_kb =
    Harness.timed_phase env ~name ~passes ~trace ~rss:Host.self_hwm_kb
      ~pass:(pass t)
  in
  let c = List.hd (List.rev !(t.pass_counts)) in
  let per_event x = float_of_int x /. float_of_int (max 1 c.events) in
  { Report.setup; passes; peak_rss_kb;
    counts =
      [ ("vscheme.events", float_of_int c.events);
        ("vscheme.collections", float_of_int c.collections);
        ("recording.v2_bytes_per_event", per_event c.v2_bytes);
        ("hier.events", float_of_int c.hier_events);
        ("hier.l1_misses", float_of_int c.l1_misses);
        ("hier.l3_misses", float_of_int c.l3_misses) ] }
