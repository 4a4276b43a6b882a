(* Differential tests for the fused miss-stream hierarchy engine: on a
   real recorded trace of every workload, the fused engine (L1 over
   packed chunks, lower levels draining the appended miss stream) must
   produce per-level statistics bit-identical to the hooked per-event
   oracle, for every depth and replacement policy in the matrix.  The
   parallel and kill-and-resume sweep paths must in turn be
   bit-identical to a serial fused run. *)

module Level = Memsim.Level
module Hier = Memsim.Hier

(* Small geometries so even the short scale-1 traces overflow every
   level: L2 and L3 see plenty of traffic.  The matrix covers both
   depths and all five policies, mixing policies across levels. *)
let hier_configs =
  [ ("2L-lru",
     Hier.config
       ~levels:
         [ Level.config ~policy:Level.Lru ~size_bytes:2048 ~block_bytes:32
             ~ways:2 ();
           Level.config ~policy:Level.Lru ~size_bytes:8192 ~block_bytes:32
             ~ways:4 ()
         ]
       ());
    ("2L-plru",
     Hier.config
       ~levels:
         [ Level.config ~policy:Level.Tree_plru ~size_bytes:2048
             ~block_bytes:32 ~ways:4 ();
           Level.config ~policy:Level.Tree_plru ~size_bytes:8192
             ~block_bytes:64 ~ways:8 ()
         ]
       ());
    ("3L-mru",
     Hier.config
       ~levels:
         [ Level.config ~policy:Level.Tree_plru ~size_bytes:2048
             ~block_bytes:32 ~ways:2 ();
           Level.config ~policy:Level.Lru ~size_bytes:8192 ~block_bytes:64
             ~ways:4 ();
           Level.config ~policy:Level.Mru ~size_bytes:32768 ~block_bytes:64
             ~ways:8 ()
         ]
       ());
    ("3L-qlru-r1u2",
     Hier.config
       ~levels:
         [ Level.config ~policy:Level.Tree_plru ~size_bytes:2048
             ~block_bytes:32 ~ways:4 ();
           Level.config ~policy:Level.Tree_plru ~size_bytes:8192
             ~block_bytes:64 ~ways:4 ();
           Level.config ~policy:Level.Qlru_h11_m1_r1_u2 ~size_bytes:32768
             ~block_bytes:64 ~ways:8 ()
         ]
       ());
    (* 12-way L3: a non-power-of-two associativity (the Coffee Lake
       shape) through the packed QLRU age words. *)
    ("3L-qlru-r0u0",
     Hier.config
       ~levels:
         [ Level.config ~policy:Level.Lru ~size_bytes:2048 ~block_bytes:32
             ~ways:2 ();
           Level.config ~policy:Level.Tree_plru ~size_bytes:8192
             ~block_bytes:64 ~ways:4 ();
           Level.config ~policy:Level.Qlru_h11_m1_r0_u0 ~size_bytes:49152
             ~block_bytes:64 ~ways:12 ()
         ]
       ())
  ]

let level_bytes l =
  let b = Buffer.create (Level.snapshot_bytes l) in
  Level.snapshot l b;
  Buffer.to_bytes b

(* A level equals the restore of its own snapshot: the line words'
   full bits, which snapshots do not carry, agree with the valid
   masks [restore] derives them from.  A hooked level is not [same]
   even as itself, and has nothing to compare. *)
let restores_same l =
  let r = Level.create (Level.geometry l) in
  ignore (Level.restore r (level_bytes l) 0 : int);
  (not (Level.same l l)) || Level.same l r

(* [a] the reference, [b] the engine under test. *)
let check_levels_identical name (a : Hier.t) (b : Hier.t) =
  let sa = Hier.stats a and sb = Hier.stats b in
  Alcotest.(check int) (name ^ ": level count") (Array.length sa)
    (Array.length sb);
  Array.iteri
    (fun i (s : Memsim.Cache.stats) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: L%d stats bit-identical" name (i + 1))
        true
        (s = sb.(i));
      let la = Hier.level a i and lb = Hier.level b i in
      Alcotest.(check bool)
        (Printf.sprintf "%s: L%d snapshot bytes identical" name (i + 1))
        true
        (Bytes.equal (level_bytes la) (level_bytes lb));
      Alcotest.(check bool)
        (Printf.sprintf "%s: L%d line words agree with masks" name (i + 1))
        true (restores_same lb))
    sa

let drive_chunks h recording =
  Memsim.Recording.iter_chunks recording (fun buf len ->
      Hier.access_chunk h buf 0 len)

(* --- fused = hooked oracle, full matrix ------------------------------ *)

let test_workload w () =
  let _, recording = Core.Runner.record ~scale:1 w in
  List.iter
    (fun (name, cfg) ->
      let hooked = Hier.create ~fused:false cfg in
      let fused = Hier.create ~fused:true cfg in
      drive_chunks hooked recording;
      drive_chunks fused recording;
      check_levels_identical name hooked fused)
    hier_configs

(* --- the direct-mapped loop against the per-event oracle ------------- *)

(* A 1-way level's chunk step is the dedicated direct-indexed loop;
   the per-event [Level.access] (way scan, policy promote and fill) is
   its oracle.  On every workload, over the golden grid (64k/512k x
   32/128 bytes) under both write-miss policies and three replacement
   policies, the two must leave identical counters and snapshot
   bytes. *)
let test_level_matches_cache () =
  let geometries =
    [ (Memsim.Sweep.kb 64, 32); (Memsim.Sweep.kb 64, 128);
      (Memsim.Sweep.kb 512, 32); (Memsim.Sweep.kb 512, 128) ]
  in
  let policies = [ Level.Lru; Level.Mru; Level.Qlru_h11_m1_r1_u2 ] in
  let snap l =
    let b = Buffer.create (Level.snapshot_bytes l) in
    Level.snapshot l b;
    Buffer.contents b
  in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let _, recording = Core.Runner.record ~scale:1 w in
      List.iter
        (fun write_miss_policy ->
          List.iter
            (fun (size_bytes, block_bytes) ->
              List.iter
                (fun policy ->
                  let mk () =
                    Level.create
                      (Level.config ~policy ~write_miss_policy ~size_bytes
                         ~block_bytes ~ways:1 ())
                  in
                  let chunked = mk () and per_event = mk () in
                  Memsim.Recording.iter_chunks recording (fun buf len ->
                      Level.access_chunk chunked buf 0 len);
                  Memsim.Recording.replay recording (Level.sink per_event);
                  let what =
                    Format.asprintf "%s %a/%d %s %s" w.name
                      Memsim.Sweep.pp_size size_bytes block_bytes
                      (Memsim.Cache.write_miss_label write_miss_policy)
                      (Level.policy_label policy)
                  in
                  Alcotest.(check bool)
                    (what ^ ": direct-mapped loop stats = per-event")
                    true
                    (Level.stats chunked = Level.stats per_event);
                  Alcotest.(check bool)
                    (what ^ ": direct-mapped loop snapshot = per-event")
                    true
                    (String.equal (snap chunked) (snap per_event));
                  Alcotest.(check bool)
                    (what ^ ": direct-mapped loop line words = per-event")
                    true
                    (Level.same chunked per_event))
                policies)
            geometries)
        [ Memsim.Cache.Write_validate; Memsim.Cache.Fetch_on_write ])
    Workloads.Workload.all

(* The direct-mapped loops pack three stream counters into 21-bit
   fields of one word.  One chunk of more than 2^21 collector stores —
   every field's worst case — through [access_chunk] and
   [access_chunk2] must count exactly what the per-event oracle
   counts. *)
let test_long_chunk_counts () =
  let n = (1 lsl 21) + 5 in
  let word i = ((((i land 1023) * 4) lsl 3) lor (1 lsl 1)) lor 1 in
  let buf = Memsim.Chunk.create_buf n in
  for i = 0 to n - 1 do
    Bigarray.Array1.set buf i (word i)
  done;
  let mk size =
    Level.create
      (Level.config ~size_bytes:size ~block_bytes:32 ~ways:1 ())
  in
  let oracle = mk 1024 in
  for i = 0 to n - 1 do
    Level.access oracle (i land 1023 * 4) Memsim.Trace.Write
      Memsim.Trace.Collector
  done;
  let single = mk 1024 and a = mk 1024 and b = mk 2048 in
  Level.access_chunk single buf 0 n;
  Level.access_chunk2 a b buf 0 n;
  List.iter
    (fun (what, l) ->
      Alcotest.(check bool) (what ^ " = per-event") true
        (Level.stats l = Level.stats oracle))
    [ ("access_chunk", single); ("access_chunk2 first", a) ];
  Alcotest.(check int) "access_chunk2 second: collector writes" n
    (Level.stats b).Memsim.Cache.collector_writes

(* --- sweep engines over hierarchies ---------------------------------- *)

let make_fleet () =
  Array.of_list (List.map (fun (_, cfg) -> Hier.create cfg) hier_configs)

let check_fleets_identical name a b =
  Array.iteri (fun i h -> check_levels_identical
                  (Printf.sprintf "%s: hier %d" name i) h b.(i)) a

let test_parallel_vs_serial () =
  let _, recording =
    Core.Runner.record ~scale:1 Workloads.Workload.nbody
  in
  let serial = make_fleet () in
  Memsim.Sweep.hier_run_serial serial recording;
  List.iter
    (fun jobs ->
      let parallel = make_fleet () in
      Memsim.Sweep.hier_run_parallel ~jobs parallel recording;
      check_fleets_identical
        (Printf.sprintf "hier_run_parallel jobs=%d" jobs)
        serial parallel)
    [ 2; 3; 8 ]

let test_kill_and_resume () =
  let _, recording =
    Core.Runner.record ~scale:1 Workloads.Workload.nbody
  in
  let uninterrupted = make_fleet () in
  Memsim.Sweep.hier_run_serial uninterrupted recording;
  let ckpt = Filename.temp_file "hier" ".ckpt" in
  Sys.remove ckpt;
  let events = Memsim.Recording.length recording in
  let every = max 1 (events / 7) in
  (* First process: dies right after the third checkpoint lands. *)
  let victim = make_fleet () in
  (try
     Memsim.Sweep.hier_run_resumable ~checkpoint_every:every
       ~progress:(fun cursor -> if cursor >= 3 * every then raise Exit)
       ~checkpoint:ckpt victim recording
   with Exit -> ());
  (* Second process: fresh hierarchies restored from the checkpoint,
     replay finishes on two domains. *)
  let resumed = make_fleet () in
  Memsim.Sweep.hier_run_resumable ~jobs:2 ~checkpoint_every:every
    ~checkpoint:ckpt resumed recording;
  check_fleets_identical "kill-and-resume" uninterrupted resumed;
  (* A third run restores the final checkpoint and replays nothing. *)
  let idem = make_fleet () in
  Memsim.Sweep.hier_run_resumable ~checkpoint_every:every ~checkpoint:ckpt
    idem recording;
  check_fleets_identical "resume of a finished run" uninterrupted idem;
  Sys.remove ckpt

(* --- shared hierarchy prefixes ----------------------------------------- *)

(* A fleet replay simulates each shared prefix once (the five presets
   share one L1 and two L2s) and copies the leader's state into the
   followers; a one-hierarchy replay never shares, so replaying each
   hierarchy alone is the oracle.  Both must leave the same per-level
   counters and the same snapshot bytes. *)

let snapshot_string h =
  let b = Buffer.create 4096 in
  Hier.snapshot h b;
  Buffer.contents b

let check_same_as_alone name fleet alone =
  Array.iteri
    (fun i h ->
      let what = Printf.sprintf "%s: hier %d" name i in
      check_levels_identical what h alone.(i);
      Alcotest.(check bool) (what ^ ": snapshot bytes") true
        (String.equal (snapshot_string h) (snapshot_string alone.(i))))
    fleet

let run_alone hiers recording =
  Array.iter (fun h -> Memsim.Sweep.hier_run_serial [| h |] recording) hiers

(* Build a fleet twice from [make], replay one copy as a fleet (serial
   and on two domains) and the other hierarchy by hierarchy. *)
let check_fleet name make recording =
  let alone = make () in
  run_alone alone recording;
  let serial = make () in
  Memsim.Sweep.hier_run_serial serial recording;
  check_same_as_alone (name ^ " serial") serial alone;
  let parallel = make () in
  Memsim.Sweep.hier_run_parallel ~jobs:2 parallel recording;
  check_same_as_alone (name ^ " jobs=2") parallel alone

let presets ?(fused = true) cpus =
  Array.of_list (List.map (fun c -> Hier.create ~fused (Hier.preset c)) cpus)

(* Warm [h] on the recording's first chunk only, so it enters the
   replay in a different state from a fresh hierarchy of the same
   configuration. *)
let warm_first_chunk h recording =
  let first = ref true in
  Memsim.Recording.iter_chunks recording (fun buf len ->
      if !first then Hier.access_chunk h buf 0 len;
      first := false)

(* Closed forms for "L2 sees exactly the L1 miss stream", from the
   [Level.access_chunk_emit] and [Level.write_back] contracts: level
   i emits one read per block fetch and one write-back per dirty
   eviction, each in the phase of the access that caused it; level
   i+1 counts each as one reference of that phase, each write-back
   also as one write, and never sees an allocation.  [refs], [misses]
   and [fetches] are split by phase into disjoint mutator/collector
   counters; [writes] and [writebacks] are totals with a collector
   part. *)
let check_miss_stream_identities name h =
  let st = Hier.stats h in
  for i = 0 to Array.length st - 2 do
    let up = st.(i) and down = st.(i + 1) in
    let what fmt =
      Printf.ksprintf (fun s -> Printf.sprintf "%s: L%d<-L%d %s" name (i + 2)
                          (i + 1) s) fmt
    in
    let open Memsim.Cache in
    let mutator_wbs = up.writebacks - up.collector_writebacks in
    Alcotest.(check int) (what "mutator refs = fetches + write-backs")
      (up.fetches + mutator_wbs) down.refs;
    Alcotest.(check int) (what "collector refs = fetches + write-backs")
      (up.collector_fetches + up.collector_writebacks) down.collector_refs;
    Alcotest.(check int) (what "mutator writes = write-backs") mutator_wbs
      (down.writes - down.collector_writes);
    Alcotest.(check int) (what "collector writes = write-backs")
      up.collector_writebacks down.collector_writes;
    Alcotest.(check int) (what "no allocation misses") 0 down.alloc_misses
  done

let test_shared_prefix w () =
  let _, recording = Core.Runner.record ~scale:1 w in
  let name = w.Workloads.Workload.name in
  check_fleet (name ^ ": five presets") (fun () -> presets Hier.all_cpus)
    recording;
  check_fleet (name ^ ": ivb twice")
    (fun () -> presets [ Hier.Ivb; Hier.Nhm; Hier.Ivb ])
    recording;
  check_fleet (name ^ ": ivb pre-warmed beside hsw")
    (fun () ->
      let fleet = presets [ Hier.Ivb; Hier.Hsw; Hier.Skl ] in
      warm_first_chunk fleet.(0) recording;
      fleet)
    recording;
  check_fleet (name ^ ": hooked ivb among fused presets")
    (fun () ->
      [| Hier.create (Hier.preset Hier.Nhm);
         Hier.create ~fused:false (Hier.preset Hier.Ivb);
         Hier.create (Hier.preset Hier.Hsw)
      |])
    recording;
  let fleet = presets Hier.all_cpus in
  Memsim.Sweep.hier_run_serial fleet recording;
  Array.iteri
    (fun i h ->
      check_miss_stream_identities
        (Printf.sprintf "%s %s" name (Hier.cpu_label (List.nth Hier.all_cpus i)))
        h)
    fleet

(* Kill-and-resume through the shared replay: every epoch regroups
   the hierarchies by their restored state. *)
let test_shared_kill_and_resume () =
  let _, recording = Core.Runner.record ~scale:1 Workloads.Workload.nbody in
  let alone = presets Hier.all_cpus in
  run_alone alone recording;
  let ckpt = Filename.temp_file "shared" ".ckpt" in
  Sys.remove ckpt;
  let every = max 1 (Memsim.Recording.length recording / 5) in
  (try
     Memsim.Sweep.hier_run_resumable ~checkpoint_every:every
       ~progress:(fun cursor -> if cursor >= 2 * every then raise Exit)
       ~checkpoint:ckpt (presets Hier.all_cpus) recording
   with Exit -> ());
  let resumed = presets Hier.all_cpus in
  Memsim.Sweep.hier_run_resumable ~jobs:2 ~checkpoint_every:every
    ~checkpoint:ckpt resumed recording;
  Sys.remove ckpt;
  check_same_as_alone "five presets killed and resumed" resumed alone

(* --- checkpoint bytes are pinned --------------------------------------- *)

(* A fixed synthetic recording: xorshift addresses over 64 KB, every
   kind, one in eight events in the collector phase. *)
let synthetic_recording n =
  let recording = Memsim.Recording.create ~initial_capacity:4096 () in
  let sink = Memsim.Recording.sink recording in
  let state = ref 0x2545F4914F6CDD1D in
  for _ = 1 to n do
    let x = !state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    state := x;
    let r = x land max_int in
    let kind =
      match r land 3 with
      | 0 | 1 -> Memsim.Trace.Read
      | 2 -> Memsim.Trace.Write
      | _ -> Memsim.Trace.Alloc_write
    in
    let phase =
      if (r lsr 2) land 7 = 0 then Memsim.Trace.Collector
      else Memsim.Trace.Mutator
    in
    sink.Memsim.Trace.access ((r lsr 8) land 0xfffc) kind phase
  done;
  recording

(* Run a resumable replay until its first checkpoint lands at [every]
   events, then return the checkpoint file's digest. *)
let checkpoint_digest run =
  let path = Filename.temp_file "pinned" ".ckpt" in
  Sys.remove path;
  let every = 30_000 in
  (try
     run ~checkpoint_every:every
       ~progress:(fun cursor -> if cursor >= every then raise Exit)
       ~checkpoint:path
   with Exit -> ());
  let digest = Digest.to_hex (Digest.file path) in
  Sys.remove path;
  digest

(* The hierarchy digest was taken from the checkpoint writer that
   predates the shared replay driver, so spools written before it
   still resume.  The grid digest is what that same writer produces
   for the grid's cells as one-level 1-way LRU hierarchies — the form
   grid checkpoints have taken since the direct-mapped engine and its
   "SWPCKPT1" format were retired. *)
let test_checkpoint_bytes_pinned () =
  let recording = synthetic_recording 100_000 in
  let sweep =
    Memsim.Sweep.create
      (Memsim.Sweep.grid ~cache_sizes:[ 1024; 8192 ] ~block_sizes:[ 16; 64 ]
         ()
      @ Memsim.Sweep.grid ~write_miss_policy:Memsim.Cache.Fetch_on_write
          ~cache_sizes:[ 4096 ] ~block_sizes:[ 32 ] ())
  in
  let grid =
    checkpoint_digest (fun ~checkpoint_every ~progress ~checkpoint ->
        Memsim.Sweep.hier_run_resumable ~checkpoint_every ~progress
          ~checkpoint (Memsim.Sweep.hiers sweep) recording)
  in
  let fleet =
    Array.of_list
      (List.map (fun (_, cfg) -> Hier.create cfg)
         [ List.nth hier_configs 0; List.nth hier_configs 3 ])
  in
  let hier =
    checkpoint_digest (fun ~checkpoint_every ~progress ~checkpoint ->
        Memsim.Sweep.hier_run_resumable ~checkpoint_every ~progress
          ~checkpoint fleet recording)
  in
  Alcotest.(check string) "grid checkpoint (one-level SWHCKPT1) digest"
    "fc119d14718f760f6563480ed3033c82" grid;
  Alcotest.(check string) "hierarchy checkpoint (SWHCKPT1) digest"
    "677098b8fc3e91c098e9f31312bd4d0b" hier

(* --- hostile checkpoint fields ------------------------------------------ *)

(* The fleet the checkpoint tests write: one grid cell and one
   two-level hierarchy. *)
let ckpt_fleet () =
  [| Hier.create
       (Hier.config
          ~levels:[ Level.config ~size_bytes:1024 ~block_bytes:16 ~ways:1 () ]
          ());
     Hier.create (snd (List.hd hier_configs))
  |]

let ckpt_events = 8_000

(* The fleet after 5000 synthetic events, checkpointed as if over an
   8000-event recording. *)
let ckpt_bytes =
  lazy
    (let fleet = ckpt_fleet () in
     Memsim.Sweep.hier_run_serial fleet (synthetic_recording 5_000);
     let path = Filename.temp_file "fleet" ".ckpt" in
     Memsim.Sweep.save_hier_checkpoint fleet ~events:ckpt_events
       ~cursor:5_000 path;
     let b = In_channel.with_open_bin path In_channel.input_all in
     Sys.remove path;
     Bytes.of_string b)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* A negative counter is no event count: [Level.restore] refuses it at
   its byte before loading anything, and a checkpoint carrying it
   fails to load, naming the file and the same byte. *)
let test_negative_counter_refused () =
  let fleet = ckpt_fleet () in
  Memsim.Sweep.hier_run_serial fleet (synthetic_recording 3_000);
  let l = Hier.level fleet.(0) 0 in
  let snap = level_bytes l in
  (* magic and 6 geometry words, then counter slot 0 *)
  Bytes.set_int64_le snap 56 (-1L);
  let cell = (ckpt_fleet ()).(0) in
  Memsim.Sweep.hier_run_serial [| cell |] (synthetic_recording 10);
  let target = Hier.level cell 0 in
  let before = level_bytes target in
  Alcotest.check_raises "restore refuses the counter at its byte"
    (Invalid_argument "Level.restore: byte 56: negative counter -1")
    (fun () -> ignore (Level.restore target snap 0 : int));
  Alcotest.(check bool) "refused restore leaves the level unchanged" true
    (Bytes.equal before (level_bytes target));
  let b = Bytes.copy (Lazy.force ckpt_bytes) in
  (* 32-byte file header, 16-byte hierarchy header, then the level *)
  Bytes.set_int64_le b (32 + 16 + 56) (-1L);
  let path = Filename.temp_file "negative" ".ckpt" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
  let msg =
    match
      Memsim.Sweep.load_hier_checkpoint (ckpt_fleet ()) ~events:ckpt_events
        path
    with
    | _ -> "loaded"
    | exception Failure msg -> msg
  in
  Sys.remove path;
  Alcotest.(check bool)
    ("checkpoint load names the file and byte 104: " ^ msg)
    true
    (contains msg path && contains msg "byte 104: negative counter -1")

(* Where each mutable field of [ckpt_bytes] lies, by kind: the header's
   cursor, event count and hierarchy count, each hierarchy's level
   count, and each level's counters, tags, valid masks and dirty
   bytes.  Offsets follow the layouts [save_hier_checkpoint],
   [Hier.snapshot] and [Level.snapshot] write. *)
type field = Word of int | Byte of int

let ckpt_fields =
  lazy
    (let header = [ [ Word 8 ]; [ Word 16 ]; [ Word 24 ] ] in
     let at = ref 32 in
     let levels = ref [] and counters = ref [] and tags = ref []
     and masks = ref [] and dirty = ref [] in
     let words base n = List.init n (fun i -> Word (base + (8 * i))) in
     Array.iter
       (fun h ->
         levels := Word (!at + 8) :: !levels;
         at := !at + 16;
         Array.iteri
           (fun i _ ->
             let l = Hier.level h i in
             let lines = Level.num_sets l * Level.num_ways l in
             let cnt = !at + 56 in
             let tg = cnt + (8 * 11) in
             let lo = tg + (8 * lines) in
             let dt = lo + (16 * lines) in
             counters := words cnt 11 @ !counters;
             tags := words tg lines @ !tags;
             masks := words lo (2 * lines) @ !masks;
             dirty := List.init lines (fun i -> Byte (dt + i)) @ !dirty;
             at := !at + Level.snapshot_bytes l)
           (Hier.geometry h).Hier.levels)
       (ckpt_fleet ());
     Array.of_list
       (List.map Array.of_list
          (header @ [ !levels; !counters; !tags; !masks; !dirty ])))

(* Mutate exactly one field: [load_hier_checkpoint] either refuses the
   file with a [Failure] naming it (and a byte offset when the fault
   is inside a snapshot) or loads it, and then saving the fleet again
   gives back the mutated bytes; and whenever [repro check]'s scanner
   finds no error, the load succeeds. *)
let prop_checkpoint_mutated =
  QCheck.Test.make ~count:1000
    ~name:"mutated checkpoint field: check clean => loads, exact re-save"
    QCheck.(
      triple (int_range 0 7) small_nat
        (make
           ~print:(fun (rel, v) -> Printf.sprintf "rel=%b 0x%Lx" rel v)
           Gen.(
             pair bool
               (frequency
                  [ (3, map Int64.of_int (int_range (-3) 3));
                    (2, map Int64.of_int (int_range (-300) 300));
                    (1, map (fun b -> Int64.shift_left 1L b) (int_range 0 63));
                    (* bit 63 alone, which no native int holds *)
                    (1, return Int64.min_int);
                    (1, map Int64.of_int int) ]))))
    (fun (kind, idx, (relative, v)) ->
      let fields = (Lazy.force ckpt_fields).(kind) in
      let field = fields.(idx mod Array.length fields) in
      let b = Bytes.copy (Lazy.force ckpt_bytes) in
      (* [relative] adds [v] to the field's value instead of replacing
         it, so small shifts of real tags, masks and counts occur. *)
      let offset =
        match field with
        | Word at ->
          let old = Bytes.get_int64_le b at in
          Bytes.set_int64_le b at (if relative then Int64.add old v else v);
          at
        | Byte at ->
          let old = Char.code (Bytes.get b at) in
          let n = Int64.to_int v in
          Bytes.set b at (Char.chr ((if relative then old + n else n) land 255));
          at
      in
      let path = Filename.temp_file "mutated" ".ckpt" in
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
      let fleet = ckpt_fleet () in
      let outcome =
        match Memsim.Sweep.load_hier_checkpoint fleet ~events:ckpt_events path with
        | cursor ->
          Memsim.Sweep.save_hier_checkpoint fleet ~events:ckpt_events ~cursor
            path;
          let again = In_channel.with_open_bin path In_channel.input_all in
          if String.equal again (Bytes.to_string b) then Ok ()
          else Error "loaded, but the re-save differs"
        | exception Failure msg ->
          if not (contains msg path) then Error ("unnamed file: " ^ msg)
          else if offset >= 32 && not (contains msg ": byte ") then
            Error ("unlocated snapshot fault: " ^ msg)
          else Error ("refused: " ^ msg)
      in
      let clean =
        not
          (Check.Finding.has_errors
             (Check.Ckpt_check.scan ~events:ckpt_events path)
               .Check.Ckpt_check.findings)
      in
      Sys.remove path;
      match outcome with
      | Ok () -> true
      | Error msg when String.starts_with ~prefix:"refused: " msg ->
        if clean then
          QCheck.Test.fail_reportf "repro check finds no error, but %s" msg;
        true
      | Error msg -> QCheck.Test.fail_reportf "byte %d: %s" offset msg)

(* --- hierarchy snapshot round trip ----------------------------------- *)

let test_snapshot_roundtrip () =
  let _, recording =
    Core.Runner.record ~scale:1 Workloads.Workload.nbody
  in
  let cfg = Hier.preset Hier.Nhm in
  let a = Hier.create cfg in
  drive_chunks a recording;
  let buf = Buffer.create 1024 in
  Hier.snapshot a buf;
  let b = Hier.create cfg in
  let stop = Hier.restore b (Buffer.to_bytes buf) 0 in
  Alcotest.(check int) "restore consumed the whole snapshot"
    (Buffer.length buf) stop;
  (* Both must continue bit-identically from the restored state. *)
  drive_chunks a recording;
  drive_chunks b recording;
  check_levels_identical "restored hierarchy continues identically" a b

(* --- disjoint overhead charging over two direct-mapped levels -------- *)

let test_hierarchy_overhead_disjoint () =
  let mk bytes = Level.config ~size_bytes:bytes ~block_bytes:64 ~ways:1 () in
  let h =
    Hier.create ~fused:false
      (Hier.config ~hit_ns:[ 60.0 ] ~levels:[ mk 1024; mk 8192 ] ())
  in
  (* A then B (same L1 set, different L2 sets) then A again: three L1
     fetches, two of which miss L2; the re-fetch of A hits L2. *)
  Hier.access h 0 Memsim.Trace.Read Memsim.Trace.Mutator;
  Hier.access h 1024 Memsim.Trace.Read Memsim.Trace.Mutator;
  Hier.access h 0 Memsim.Trace.Read Memsim.Trace.Mutator;
  let s1 = Hier.level_stats h 0 in
  let s2 = Hier.level_stats h 1 in
  Alcotest.(check int) "three L1 fetches" 3 s1.Memsim.Cache.fetches;
  Alcotest.(check int) "two L2 fetches" 2 s2.Memsim.Cache.fetches;
  let cpu = Memsim.Timing.Fast in
  let instructions = 1000 in
  (* One L2 hit pays the L2 latency; the two memory fetches pay the
     miss penalty.  The pre-fix formula charged all three L1 fetches
     the L2 latency on top. *)
  let expected =
    (1.0 *. 60.0 /. Memsim.Timing.cycle_ns cpu
    +. 2.0 *. Memsim.Timing.miss_penalty cpu ~block_bytes:64)
    /. float_of_int instructions
  in
  Alcotest.(check (float 1e-12)) "disjoint charging" expected
    (Hier.overhead h cpu ~instructions)

(* --- victim selection property --------------------------------------- *)

let all_policies_arr = Array.of_list Level.all_policies

(* Tree-PLRU's implicit heap needs a power-of-two arity: round its way
   count down to one. *)
let ways_for policy raw_ways =
  match policy with
  | Level.Tree_plru ->
    let rec pow2 p = if p * 2 > raw_ways then p else pow2 (p * 2) in
    pow2 1
  | _ -> raw_ways

let prop_victim_valid =
  QCheck.Test.make ~count:300
    ~name:"victim selection in range, invalid ways first, every policy"
    QCheck.(
      triple (int_range 0 (Array.length all_policies_arr - 1))
        (int_range 1 32)
        (list_of_size Gen.(int_range 1 300) (int_range 0 4095)))
    (fun (pidx, raw_ways, addrs) ->
      let policy = all_policies_arr.(pidx) in
      let ways = ways_for policy raw_ways in
      let nsets = 4 and block = 16 in
      let t =
        Level.create
          (Level.config ~policy ~size_bytes:(nsets * ways * block)
             ~block_bytes:block ~ways ())
      in
      List.for_all
        (fun a ->
          Level.access t (a * 4) Memsim.Trace.Read Memsim.Trace.Mutator;
          let ok = ref true in
          for set = 0 to nsets - 1 do
            let v = Level.victim_preview t ~set in
            if v < 0 || v >= ways then ok := false;
            (* When an invalid way exists the victim must be one. *)
            let any_invalid = ref false in
            for w = 0 to ways - 1 do
              if not (Level.line_valid t ~set ~way:w) then
                any_invalid := true
            done;
            if !any_invalid && Level.line_valid t ~set ~way:v then
              ok := false
          done;
          !ok)
        addrs)

(* --- snapshot equivalence properties ----------------------------------- *)

(* A level of any policy and 1-8 ways ([ways_for]), 4 sets of 16-byte
   blocks, replayed on a short random trace through the chunk loop.
   Kind code 3 words are write-backs from a level above. *)
let replayed_level pidx raw_ways wv events =
  let policy = all_policies_arr.(pidx) in
  let ways = ways_for policy raw_ways in
  let l =
    Level.create
      (Level.config ~policy
         ~write_miss_policy:
           (if wv then Memsim.Cache.Write_validate
            else Memsim.Cache.Fetch_on_write)
         ~size_bytes:(4 * ways * 16) ~block_bytes:16 ~ways ())
  in
  let words =
    List.map
      (fun (a, kcode, ph) -> ((a * 4) lsl 3) lor (kcode lsl 1) lor ph)
      events
  in
  let buf = Memsim.Chunk.of_array (Array.of_list words) in
  Level.access_chunk l buf 0 (List.length words);
  l

let gen_events =
  QCheck.(
    list_of_size Gen.(int_range 0 120)
      (triple (int_range 0 255)
         (make Gen.(frequency [ (6, int_range 0 2); (1, return 3) ]))
         (int_range 0 1)))

(* 1..8 ways.  QCheck's int shrinker heads for 0 whatever the range,
   so shrink an offset from 1 instead: a shrunk failing case keeps a
   way count [Level.create] accepts and reports the real failure. *)
let ways_1_8 =
  QCheck.(set_print string_of_int (map ~rev:pred succ (int_range 0 7)))

(* [same] is exactly snapshot byte equality.  The second trace is the
   first, a prefix of it, or the first with one event changed, and the
   second level's write-miss policy may differ, so both outcomes
   occur. *)
let prop_same_is_snapshot_equality =
  QCheck.Test.make ~count:300
    ~name:"Level.same a b <=> snapshots byte-equal, every policy, 1-8 ways"
    QCheck.(
      quad (int_range 0 (Array.length all_policies_arr - 1)) ways_1_8
        gen_events
        (triple (int_range 0 3) small_nat (int_range 0 255)))
    (fun (pidx, ways, events, (how, at, addr)) ->
      let events' =
        match how with
        | 0 | 1 -> events
        | 2 -> List.filteri (fun i _ -> i < at) events
        | _ ->
          List.mapi
            (fun i (a, k, ph) -> if i = at then (addr, k, ph) else (a, k, ph))
            events
      in
      let a = replayed_level pidx ways true events in
      let b = replayed_level pidx ways (how <> 1) events' in
      Bool.equal (Level.same a b)
        (Bytes.equal (level_bytes a) (level_bytes b)))

(* One tag, valid word, dirty byte, counter or policy word of a
   snapshot mutated, sometimes to a 64-bit word no native int holds:
   [restore] either refuses it naming a byte offset and leaving the
   level as it was, or loads a level whose own snapshot is the mutated
   bytes. *)
let prop_restore_mutated =
  QCheck.Test.make ~count:500
    ~name:"restore of a mutated snapshot: located refusal or exact load"
    QCheck.(
      quad (int_range 0 (Array.length all_policies_arr - 1)) ways_1_8
        gen_events
        (triple (int_range 0 5) small_nat
           (make
              Gen.(
                frequency
                  [ (3, map Int64.of_int (int_range (-3) 300));
                    (1, map (fun b -> Int64.shift_left 1L b) (int_range 0 40));
                    (1, map Int64.of_int int);
                    (* bit 62 flipped: the top two bits differ *)
                    ( 1,
                      map
                        (fun i ->
                          Int64.logxor 0x4000_0000_0000_0000L (Int64.of_int i))
                        int ) ]))))
    (fun (pidx, ways, events, (field, idx, v)) ->
      let l = replayed_level pidx ways true events in
      let snap = level_bytes l in
      let lines = Level.num_sets l * Level.num_ways l in
      (* magic and 6 geometry words, 11 counters, the line arrays, then
         the policy words *)
      let counters = 8 * 7 in
      let tags = counters + (8 * 11) in
      let lo = tags + (8 * lines) in
      let hi = lo + (8 * lines) in
      let dirty = hi + (8 * lines) in
      let pol = dirty + lines in
      let pol_words = (Bytes.length snap - pol) / 8 in
      let b = Bytes.copy snap in
      let set_word at = Bytes.set_int64_le b at v in
      (match field with
       | 0 -> set_word (tags + (8 * (idx mod lines)))
       | 1 -> set_word (lo + (8 * (idx mod lines)))
       | 2 -> set_word (hi + (8 * (idx mod lines)))
       | 3 ->
         Bytes.set b (dirty + (idx mod lines))
           (Char.chr (Int64.to_int v land 255))
       | 4 when pol_words > 0 -> set_word (pol + (8 * (idx mod pol_words)))
       | _ -> set_word (counters + (8 * (idx mod 11))));
      let fresh = replayed_level pidx ways true [] in
      let before = level_bytes fresh in
      match Level.restore fresh b 0 with
      | next ->
        next = Bytes.length b && Bytes.equal (level_bytes fresh) b
      | exception Invalid_argument msg -> (
        match Scanf.sscanf msg "Level.restore: byte %d:" (fun at -> at) with
        | at ->
          if not (at >= counters && at < Bytes.length b) then
            QCheck.Test.fail_reportf "refusal at byte %d: %s" at msg;
          if not (Bytes.equal (level_bytes fresh) before) then
            QCheck.Test.fail_reportf "refused restore changed the level: %s"
              msg;
          true
        | exception (Scanf.Scan_failure _ | End_of_file | Failure _) ->
          QCheck.Test.fail_reportf "unlocated refusal: %s" msg))

(* --- line-word properties ---------------------------------------------- *)

(* A random direct-mapped geometry: 1-64 sets of 4-256-byte blocks,
   either write-miss policy, and mostly the paper's LRU (the paired
   loop) with the other policies mixed in (the two-pass fallback). *)
let gen_direct =
  QCheck.Gen.(
    map
      (fun (((sets_log, block_log), wv), pidx) ->
        let block = 4 lsl block_log in
        Level.config
          ~policy:all_policies_arr.(pidx)
          ~write_miss_policy:
            (if wv then Memsim.Cache.Write_validate
             else Memsim.Cache.Fetch_on_write)
          ~size_bytes:((1 lsl sets_log) * block) ~block_bytes:block ~ways:1 ())
      (pair
         (pair (pair (int_range 0 6) (int_range 0 6)) bool)
         (frequency
            [ (4, return 0);
              (1, int_range 0 (Array.length all_policies_arr - 1)) ])))

let print_direct (c : Level.config) =
  Printf.sprintf "%db/%db %s %s" c.Level.size_bytes c.Level.block_bytes
    (Level.policy_label c.Level.policy)
    (Memsim.Cache.write_miss_label c.Level.write_miss_policy)

(* Packed events over a 16 KB region (so wide blocks see their high
   words and small caches conflict), kind codes 0-2 with some kind-3
   write-backs, both phases. *)
let gen_words =
  QCheck.Gen.(
    list_size (int_range 0 400)
      (map
         (fun ((word, kcode), ph) -> ((word * 4) lsl 3) lor (kcode lsl 1) lor ph)
         (pair
            (pair (int_range 0 4095)
               (frequency [ (6, int_range 0 2); (1, return 3) ]))
            (int_range 0 1))))

(* [access_chunk2 a b] over a trace split into two chunks leaves both
   levels [same] as the two single passes. *)
let prop_chunk2_is_two_passes =
  QCheck.Test.make ~count:500
    ~name:"access_chunk2 a b = access_chunk a then access_chunk b"
    QCheck.(
      make
        ~print:(fun (a, b, words, cut) ->
          Printf.sprintf "a=%s b=%s cut=%d words=[%s]" (print_direct a)
            (print_direct b) cut
            (String.concat ";" (List.map string_of_int words)))
        Gen.(quad gen_direct gen_direct gen_words (int_range 0 400)))
    (fun (ca, cb, words, cut) ->
      let buf = Memsim.Chunk.of_array (Array.of_list words) in
      let n = List.length words in
      let cut = min cut n in
      let pa = Level.create ca and pb = Level.create cb in
      Level.access_chunk2 pa pb buf 0 cut;
      Level.access_chunk2 pa pb buf cut (n - cut);
      let sa = Level.create ca and sb = Level.create cb in
      List.iter
        (fun l ->
          Level.access_chunk l buf 0 cut;
          Level.access_chunk l buf cut (n - cut))
        [ sa; sb ];
      Level.same pa sa && Level.same pb sb)

(* A snapshot of any level restores into a fresh one whose own
   snapshot is the same bytes, and the two continue identically. *)
let prop_line_word_roundtrip =
  QCheck.Test.make ~count:300
    ~name:"snapshot, restore, re-snapshot: same bytes, same future"
    QCheck.(
      make
        ~print:(fun ((pidx, ways, block_log, wv), w1, w2) ->
          Printf.sprintf "policy=%d ways=%d block=%d wv=%b |w1|=%d |w2|=%d"
            pidx ways (4 lsl block_log) wv (List.length w1) (List.length w2))
        Gen.(
          triple
            (quad
               (int_range 0 (Array.length all_policies_arr - 1))
               (int_range 1 8) (int_range 0 6) bool)
            gen_words gen_words))
    (fun ((pidx, raw_ways, block_log, wv), w1, w2) ->
      let policy = all_policies_arr.(pidx) in
      let ways = ways_for policy raw_ways in
      let block = 4 lsl block_log in
      let cfg =
        Level.config ~policy
          ~write_miss_policy:
            (if wv then Memsim.Cache.Write_validate
             else Memsim.Cache.Fetch_on_write)
          ~size_bytes:(4 * ways * block) ~block_bytes:block ~ways ()
      in
      let feed l words =
        let buf = Memsim.Chunk.of_array (Array.of_list words) in
        Level.access_chunk l buf 0 (List.length words)
      in
      let l = Level.create cfg in
      feed l w1;
      let snap = level_bytes l in
      let r = Level.create cfg in
      let next = Level.restore r snap 0 in
      let roundtrip =
        next = Bytes.length snap
        && Bytes.equal (level_bytes r) snap
        && Level.same l r
      in
      feed l w2;
      feed r w2;
      roundtrip && Level.same l r)

let workload_cases =
  List.map
    (fun (w : Workloads.Workload.t) ->
      Alcotest.test_case
        (Printf.sprintf "fused = hooked oracle: %s" w.name)
        `Slow (test_workload w))
    Workloads.Workload.all

let shared_cases =
  List.map
    (fun (w : Workloads.Workload.t) ->
      Alcotest.test_case
        (Printf.sprintf "shared prefixes = each alone: %s" w.name)
        `Slow (test_shared_prefix w))
    Workloads.Workload.all
  @ [ Alcotest.test_case "shared prefixes: kill-and-resume" `Slow
        test_shared_kill_and_resume
    ]

let () =
  Alcotest.run "hier"
    [ ("differential", workload_cases);
      ("level",
       [ Alcotest.test_case "1-way level = direct-mapped cache" `Quick
           test_level_matches_cache;
         Alcotest.test_case "long chunk counts exactly" `Quick
           test_long_chunk_counts
       ]);
      ("sweep",
       [ Alcotest.test_case "parallel = serial" `Slow
           test_parallel_vs_serial;
         Alcotest.test_case "kill-and-resume = uninterrupted" `Slow
           test_kill_and_resume;
         Alcotest.test_case "snapshot round trip" `Quick
           test_snapshot_roundtrip;
         Alcotest.test_case "checkpoint bytes pinned" `Quick
           test_checkpoint_bytes_pinned;
         Alcotest.test_case "negative counter refused at its byte" `Quick
           test_negative_counter_refused
       ]);
      ("shared", shared_cases);
      ("overhead",
       [ Alcotest.test_case "Hierarchy.overhead charges disjointly" `Quick
           test_hierarchy_overhead_disjoint
       ]);
      ("properties",
       List.map QCheck_alcotest.to_alcotest
         [ prop_victim_valid;
           prop_same_is_snapshot_equality;
           prop_restore_mutated;
           prop_checkpoint_mutated;
           prop_chunk2_is_two_passes;
           prop_line_word_roundtrip
         ])
    ]
