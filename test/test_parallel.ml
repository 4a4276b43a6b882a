(* Differential tests for the domain-parallel sweep engine: on a real
   recorded trace of every workload, the parallel engines must produce
   statistics bit-identical to the serial per-event oracle — every
   counter, including the per-phase splits.  `make check` runs this
   binary under REPRO_JOBS=2 as well, which exercises the same
   assertions through Exp_gc.measure at Runner.jobs (). *)

let grid () =
  Memsim.Sweep.create
    (Memsim.Sweep.grid
       ~cache_sizes:[ Memsim.Sweep.kb 32; Memsim.Sweep.kb 256 ]
       ~block_sizes:[ 32; 128 ] ())

let check_identical name reference candidate =
  List.iter2
    (fun (_, (a : Memsim.Cache.stats)) (_, (b : Memsim.Cache.stats)) ->
      Alcotest.(check bool) (name ^ ": stats bit-identical") true (a = b))
    (Memsim.Sweep.results reference)
    (Memsim.Sweep.results candidate)

let test_workload w () =
  let _, recording = Core.Runner.record ~scale:1 w in
  (* per-event oracle *)
  let oracle = grid () in
  Memsim.Recording.replay recording (Memsim.Sweep.sink oracle);
  (* serial chunked engine *)
  let serial = grid () in
  Memsim.Sweep.hier_run_serial (Memsim.Sweep.hiers serial) recording;
  check_identical "serial chunked" oracle serial;
  (* parallel replay at the satellite's jobs=4, and at REPRO_JOBS /
     --jobs when the harness sets one *)
  let jobs_list =
    let j = Core.Runner.jobs () in
    if j > 1 && j <> 4 then [ 4; j ] else [ 4 ]
  in
  List.iter
    (fun jobs ->
      let parallel = grid () in
      Memsim.Sweep.hier_run_parallel ~jobs (Memsim.Sweep.hiers parallel) recording;
      check_identical (Printf.sprintf "run_parallel jobs=%d" jobs) oracle
        parallel)
    jobs_list

let test_runner_path () =
  (* Exp_gc.measure, the one measurement every experiment goes
     through, must give the per-event oracle's stats whatever jobs
     setting is in force. *)
  let w = Workloads.Workload.nbody in
  let _, recording = Core.Runner.record ~scale:1 w in
  let oracle = grid () in
  Memsim.Recording.replay recording (Memsim.Sweep.sink oracle);
  Memsim.Recording.release recording;
  let configs =
    List.map
      (fun (c, _) -> Memsim.Hier.config ~levels:[ c ] ())
      (Memsim.Sweep.results oracle)
  in
  List.iter
    (fun jobs ->
      Core.Runner.set_jobs jobs;
      let m =
        Core.Exp_gc.measure ~jobs:(Core.Runner.jobs ()) ~scale:1 w configs
      in
      List.iteri
        (fun i (_, (s : Memsim.Cache.stats)) ->
          Alcotest.(check bool)
            (Printf.sprintf "measure jobs=%d cell %d: stats bit-identical"
               jobs i)
            true
            (s = m.Core.Exp_gc.hiers.(i).Core.Exp_gc.levels.(0)))
        (Memsim.Sweep.results oracle))
    [ 1; 2 ];
  Core.Runner.set_jobs 1

(* --- Paired direct-mapped cells ----------------------------------------- *)

(* The replay claims two unshared direct-mapped cells at once; an odd
   cell, a 2-way cell and a multi-level hierarchy replay alone.  The
   oracle is each hierarchy replayed by itself (a one-hierarchy replay
   never pairs): every level's counters and snapshot bytes must
   match. *)

let nbody_recording =
  lazy (snd (Core.Runner.record ~scale:1 Workloads.Workload.nbody))

let snapshot_string h =
  let b = Buffer.create 4096 in
  Memsim.Hier.snapshot h b;
  Buffer.contents b

let check_hiers name expected actual =
  Array.iteri
    (fun i h ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: hierarchy %d stats" name i)
        true
        (Memsim.Hier.stats h = Memsim.Hier.stats actual.(i));
      Alcotest.(check bool)
        (Printf.sprintf "%s: hierarchy %d snapshot" name i)
        true
        (String.equal (snapshot_string h) (snapshot_string actual.(i))))
    expected

let alone make recording =
  let hs = make () in
  Array.iter (fun h -> Memsim.Sweep.hier_run_serial [| h |] recording) hs;
  hs

let direct ?write_miss_policy ~size ~block () =
  Memsim.Level.config ?write_miss_policy ~size_bytes:(Memsim.Sweep.kb size)
    ~block_bytes:block ~ways:1 ()

(* Grids of one, three and five cells: no pair, a pair and an odd cell,
   two pairs and an odd cell. *)
let test_odd_grids () =
  let recording = Lazy.force nbody_recording in
  List.iter
    (fun cells ->
      let configs =
        List.filteri
          (fun i _ -> i < cells)
          [ direct ~size:32 ~block:32 ();
            direct ~size:64 ~block:16 ~write_miss_policy:Memsim.Cache.Fetch_on_write ();
            direct ~size:256 ~block:128 ();
            direct ~size:8 ~block:4 ();
            direct ~size:128 ~block:256 () ]
      in
      let make () = Memsim.Sweep.hiers (Memsim.Sweep.create configs) in
      let expected = alone make recording in
      List.iter
        (fun jobs ->
          let hs = make () in
          Memsim.Sweep.hier_run_parallel ~jobs hs recording;
          check_hiers
            (Printf.sprintf "%d-cell grid, jobs=%d" cells jobs)
            expected hs)
        [ 1; 2 ])
    [ 1; 3; 5 ]

(* Direct-mapped cells around a 2-way cell and a 3-level hierarchy:
   only the 1-way one-level hierarchies pair, in index order across
   the others. *)
let make_mixed () =
  let one c = Memsim.Hier.create (Memsim.Hier.config ~levels:[ c ] ()) in
  [| one (direct ~size:32 ~block:32 ());
     one
       (Memsim.Level.config ~size_bytes:(Memsim.Sweep.kb 64) ~block_bytes:32
          ~ways:2 ());
     one (direct ~size:64 ~block:64 ());
     Memsim.Hier.create (Memsim.Hier.preset Memsim.Hier.Skl);
     one (direct ~size:512 ~block:16 ());
     one (direct ~size:128 ~block:32 ~write_miss_policy:Memsim.Cache.Fetch_on_write ())
  |]

let test_mixed_fleet () =
  let recording = Lazy.force nbody_recording in
  let expected = alone make_mixed recording in
  List.iter
    (fun jobs ->
      let hs = make_mixed () in
      Memsim.Sweep.hier_run_parallel ~jobs hs recording;
      check_hiers (Printf.sprintf "mixed fleet, jobs=%d" jobs) expected hs)
    [ 1; 2 ]

(* A paired grid killed right after its second checkpoint and resumed
   on two domains ends as an uninterrupted serial replay. *)
let test_paired_kill_and_resume () =
  let recording = Lazy.force nbody_recording in
  let make () = Memsim.Sweep.hiers (grid ()) in
  let uninterrupted = make () in
  Memsim.Sweep.hier_run_serial uninterrupted recording;
  let ckpt = Filename.temp_file "paired" ".ckpt" in
  Sys.remove ckpt;
  let every = max 1 (Memsim.Recording.length recording / 5) in
  let victim = make () in
  (try
     Memsim.Sweep.hier_run_resumable ~checkpoint_every:every
       ~progress:(fun cursor -> if cursor >= 2 * every then raise Exit)
       ~checkpoint:ckpt victim recording
   with Exit -> ());
  let resumed = make () in
  Memsim.Sweep.hier_run_resumable ~jobs:2 ~checkpoint_every:every
    ~checkpoint:ckpt resumed recording;
  Sys.remove ckpt;
  check_hiers "paired kill-and-resume" uninterrupted resumed

let () =
  Alcotest.run "parallel sweeps"
    [ ( "differential",
        List.map
          (fun w ->
            Alcotest.test_case w.Workloads.Workload.name `Slow
              (test_workload w))
          Workloads.Workload.all );
      ( "runner",
        [ Alcotest.test_case "measure honors jobs" `Slow
            test_runner_path
        ] );
      ( "pairs",
        [ Alcotest.test_case "grids of 1, 3 and 5 cells" `Slow test_odd_grids;
          Alcotest.test_case "mixed fleet = each alone" `Slow test_mixed_fleet;
          Alcotest.test_case "paired grid kill-and-resume" `Slow
            test_paired_kill_and_resume
        ] )
    ]
