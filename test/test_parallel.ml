(* Differential tests for the domain-parallel sweep engine: on a real
   recorded trace of every workload, the parallel engines must produce
   statistics bit-identical to the serial per-event oracle — every
   counter, including the per-phase splits.  `make check` runs this
   binary under REPRO_JOBS=2 as well, which exercises the same
   assertions through Runner.sweep_recording's jobs selection. *)

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
  Memsim.Sweep.run_serial serial recording;
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
      Memsim.Sweep.run_parallel ~jobs parallel recording;
      check_identical (Printf.sprintf "run_parallel jobs=%d" jobs) oracle
        parallel)
    jobs_list

let test_runner_path () =
  (* Runner.sweep_recording must route through the same engines and
     give the same stats whatever jobs setting is in force. *)
  let w = Workloads.Workload.nbody in
  let _, recording = Core.Runner.record ~scale:1 w in
  let oracle = grid () in
  Memsim.Recording.replay recording (Memsim.Sweep.sink oracle);
  List.iter
    (fun jobs ->
      Core.Runner.set_jobs jobs;
      let sw = grid () in
      Core.Runner.sweep_recording ~label:"test.sweep" sw recording;
      check_identical
        (Printf.sprintf "sweep_recording jobs=%d" jobs)
        oracle sw)
    [ 1; 2 ];
  Core.Runner.set_jobs 1

let () =
  Alcotest.run "parallel sweeps"
    [ ( "differential",
        List.map
          (fun w ->
            Alcotest.test_case w.Workloads.Workload.name `Slow
              (test_workload w))
          Workloads.Workload.all );
      ( "runner",
        [ Alcotest.test_case "sweep_recording honors jobs" `Slow
            test_runner_path
        ] )
    ]
