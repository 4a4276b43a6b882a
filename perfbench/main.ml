(* The benchmark's entry point:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one workload in this process (serve-mixed also drives a
   `repro serve` daemon), checks every operation's output, prints a
   report, and ends with one JSON line of metrics.  Run it from the
   repository root, after building it and the `repro` CLI (perfbench/run.py
   does both).
   [--emit-expected] re-records the committed expected outputs. *)

open Perfbench

let workloads = [ "trace-pipeline"; "serve-mixed" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (trace-pipeline|serve-mixed) \
     --seed N --seconds S --trace 0|1 [--emit-expected]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref false and emit = ref false in
  let work_root = ".perfbench-work" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := v = "1"; parse rest
    | "--emit-expected" :: rest -> emit := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !workload workloads) then usage ();
  let mkdir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755 in
  mkdir work_root;
  (* Runs are sequential: a directory left here was left by a killed run. *)
  Array.iter
    (fun f ->
      let f = Filename.concat work_root f in
      if Sys.is_directory f then Host.remove_tree f)
    (Sys.readdir work_root);
  let work_dir =
    Filename.concat work_root (Printf.sprintf "%s-%d" !workload (Unix.getpid ()))
  in
  mkdir work_dir;
  let expected_path =
    Filename.concat "perfbench" (Filename.concat "expected" (!workload ^ ".txt"))
  in
  let meter = Meter.of_kernel (Kernel.create ()) in
  let env =
    Harness.create_env ~meter ~seed:!seed ~work_dir ~expected_path ~emit:!emit
  in
  let run =
    match !workload with
    | "trace-pipeline" -> Trace_pipeline.run
    | _ -> Serve_mixed.run
  in
  let outcome =
    Fun.protect
      ~finally:(fun () -> Host.remove_tree work_dir)
      (fun () -> run env ~seconds:!seconds ~trace:!trace)
  in
  Report.print env outcome ~workload:!workload ~seed:!seed ~trace:!trace;
  if !trace then begin
    let path =
      Filename.concat work_root (Printf.sprintf "spans-%s.json" !workload)
    in
    Spans.write_chrome env.Harness.spans path;
    Printf.printf "spans (Chrome trace JSON): %s\n" path
  end;
  if !emit then
    Expected.save env.Harness.recorder
      ~header:(!workload ^ " expected outputs; re-record with --emit-expected")
      expected_path;
  let metrics =
    if !trace then Report.per_layer_values env outcome
    else
      List.map
        (fun (name, v, _) -> (name, List.assoc name Report.end_to_end, v))
        (Report.end_to_end_values env outcome)
  in
  print_endline (Obs.Json.to_string (Report.result_json env ~metrics))
