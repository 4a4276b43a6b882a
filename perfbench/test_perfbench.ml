(* The benchmark's own checks: drift-normalization arithmetic, the
   latency-tail rule, metric names, and failure counting. *)

open Perfbench

(* A synthetic host: the clock only moves when the kernel or an
   operation "runs", by its nominal cost times the current slowdown. *)
type host = { mutable now : float; mutable slow : float; kernel_cost : float }

let fake_meter h ~k_nominal =
  Meter.create
    ~clock:(fun () -> h.now)
    ~kernel:(fun () -> h.now <- h.now +. (h.kernel_cost *. h.slow))
    ~k_nominal

let work h cost () = h.now <- h.now +. (cost *. h.slow)

let env_of meter =
  Harness.create_env ~meter ~seed:1 ~work_dir:"."
    ~expected_path:"unused" ~emit:false

let close a b = Float.abs (a -. b) < 1e-9

let check_close msg expected actual =
  if not (close expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let uniform_slowdown_cancels () =
  let normalized slow =
    let h = { now = 0.; slow; kernel_cost = 0.05 } in
    let m = fake_meter h ~k_nominal:0.05 in
    let _, s = Meter.measure m (work h 1.5) in
    (s.Meter.host_s, s.Meter.norm_s)
  in
  let host1, norm1 = normalized 1.0 and host2, norm2 = normalized 1.7 in
  check_close "raw time scales with the slowdown" (host1 *. 1.7) host2;
  check_close "normalized time does not" norm1 norm2;
  check_close "at nominal speed normalized = raw" 1.5 norm1

let bracket_is_mean_of_two_kernels () =
  let s = Meter.normalize ~k_nominal:0.05 ~k_before:0.04 ~k_after:0.06 2.0 in
  check_close "factor 1 when the bracket averages k_nominal" 2.0 s.Meter.norm_s;
  check_close "factor" 0.5 (Meter.factor ~k_nominal:0.05 ~k_before:0.1 ~k_after:0.1)

let kernel_never_in_run_s () =
  (* Kernel ten times longer than the operations, and a slowdown that
     changes between operations: the pass total is still exactly the
     operations' nominal costs. *)
  let h = { now = 0.; slow = 1.; kernel_cost = 0.5 } in
  let env = env_of (fake_meter h ~k_nominal:0.5) in
  List.iter
    (fun cost ->
      Harness.op env ~name:"t" ~whole:[ Harness.Job ] (fun _ -> work h cost ())
        (fun () -> Ok ()))
    [ 0.01; 0.02; 0.03 ];
  check_close "run_s is the sum of the operations" 0.06 env.Harness.pass_norm;
  let kernels = Meter.kernel_times env.Harness.meter in
  Alcotest.(check int) "one kernel before the first op and one after each" 4
    (List.length kernels);
  Alcotest.(check int) "3 operations attempted" 3 env.Harness.tally.Tally.attempted

let kernel_never_in_setup_s () =
  (* The warm-up kernel and the brackets are ten times longer than the
     set-up itself: every repetition still reads exactly its own cost. *)
  let h = { now = 0.; slow = 1.; kernel_cost = 0.5 } in
  let env =
    Harness.create_env ~meter:(fake_meter h ~k_nominal:0.5) ~seed:1 ~work_dir:"."
      ~expected_path:"unused" ~emit:true
  in
  let _, reps =
    Harness.setup env ~setup:(fun _ -> work h 0.01 ()) ~teardown:ignore
  in
  Alcotest.(check int) "every repetition" Harness.setup_reps (List.length reps);
  List.iter
    (fun s ->
      check_close "raw set-up is the set-up alone" 0.01 s.Meter.host_s;
      check_close "normalized set-up is the set-up alone" 0.01 s.Meter.norm_s)
    reps

let drifting_host_normalizes () =
  (* The host slows down by 2x for the second operation only (its
     kernel bracket slows with it): normalized costs stay nominal. *)
  let h = { now = 0.; slow = 1.; kernel_cost = 0.05 } in
  let env = env_of (fake_meter h ~k_nominal:0.05) in
  Harness.op env ~name:"a" (fun _ -> work h 1.0 ()) (fun () -> Ok ());
  h.slow <- 2.;
  Meter.run_kernel env.Harness.meter |> ignore;
  Harness.op env ~name:"b" (fun _ -> work h 1.0 ()) (fun () -> Ok ());
  check_close "both operations cost 1 nominal second" 2.0 env.Harness.pass_norm;
  check_close "raw time shows the drift" 3.0 env.Harness.pass_raw

let tail_rule () =
  let xs n = List.init n float_of_int in
  let pick n =
    match Stats.tail (xs n) with
    | Some (p, _, count) ->
      Alcotest.(check int) "sample count reported" n count;
      Some p
    | None -> None
  in
  let p = Alcotest.(option (float 0.)) in
  Alcotest.check p "9 samples: no percentile has 10 beyond it" None (pick 9);
  Alcotest.check p "20 samples: median" (Some 50.) (pick 20);
  Alcotest.check p "37 samples: still the median" (Some 50.) (pick 37);
  Alcotest.check p "38 samples: p75 (10 above 27.75)" (Some 75.) (pick 38);
  Alcotest.check p "40 samples: p75" (Some 75.) (pick 40);
  Alcotest.check p "100 samples: p90" (Some 90.) (pick 100);
  Alcotest.check p "1000 samples: p99" (Some 99.) (pick 1000);
  Alcotest.check p "10000 samples: p99.9" (Some 99.9) (pick 10000);
  (match Stats.tail (xs 40) with
   | Some (_, v, _) -> check_close "p75 of 0..39" 29.25 v
   | None -> Alcotest.fail "no tail")

let quartiles_match_python () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, m, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  check_close "q1" 2.75 q1;
  check_close "q2" 5.5 m;
  check_close "q3" 8.25 q3

let benchmark_json_names () =
  match
    Obs.Json.of_string (In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all)
  with
  | Error e -> Alcotest.fail e
  | Ok json ->
    let names key =
      match Option.bind (Obs.Json.member key json) Obs.Json.to_list with
      | Some l ->
        List.filter_map
          (fun m ->
            match
              ( Option.bind (Obs.Json.member "name" m) Obs.Json.to_str,
                Option.bind (Obs.Json.member "unit" m) Obs.Json.to_str )
            with
            | Some n, Some u -> Some (n, u)
            | _ -> None)
          l
      | None -> Alcotest.failf "BENCHMARK.json has no %s" key
    in
    let pair = Alcotest.(list (pair string string)) in
    Alcotest.check pair "end_to_end as printed" Report.end_to_end (names "end_to_end");
    Alcotest.check pair "per_layer as printed" Report.per_layer (names "per_layer")

let metric_names_valid () =
  let all = List.map fst (Report.end_to_end @ Report.per_layer) in
  List.iter
    (fun n ->
      if not (Report.valid_name n) then Alcotest.failf "bad metric name %S" n;
      if String.length n > 64 then Alcotest.failf "metric name %S too long" n)
    all;
  Alcotest.(check int) "names are unique" (List.length all)
    (List.length (List.sort_uniq compare all));
  Alcotest.(check bool) "the pattern rejects a space" false
    (Report.valid_name "run s")

let mismatch_counts_as_failed () =
  let h = { now = 0.; slow = 1.; kernel_cost = 0.05 } in
  let env = env_of (fake_meter h ~k_nominal:0.05) in
  let expected = Hashtbl.create 2 in
  Hashtbl.replace expected "grid.digest" "aaaa";
  env.Harness.expected <- Some expected;
  let op output =
    Harness.op env ~name:"sweep"
      (fun _ -> work h 0.1 (); output)
      (fun actual -> Harness.expect env "grid.digest" actual)
  in
  op "aaaa";
  op "bbbb";
  Harness.op env ~name:"boom" (fun _ -> failwith "boom") (fun () -> Ok ());
  op "aaaa";
  let t = env.Harness.tally in
  Alcotest.(check int) "every operation attempted" 4 t.Tally.attempted;
  Alcotest.(check int) "the mismatch and the exception failed" 2 t.Tally.failed;
  Alcotest.(check int) "both explained" 2 (List.length (Tally.messages t))

let spans_self_time () =
  let mk id parent t0 t1 =
    { Spans.id; parent; op = 0; layer = "l"; name = "n"; t0; t1; work = 0 }
  in
  let selfs =
    Spans.self_times [ mk 0 None 0. 10.; mk 1 (Some 0) 1. 4.; mk 2 (Some 0) 5. 7. ]
  in
  let self id =
    snd (List.find (fun ((s : Spans.span), _) -> s.Spans.id = id) selfs)
  in
  check_close "parent minus children" 5. (self 0);
  check_close "leaf" 3. (self 1)

let () =
  Alcotest.run "perfbench"
    [ ( "normalization",
        [ Alcotest.test_case "uniform slowdown cancels" `Quick uniform_slowdown_cancels;
          Alcotest.test_case "bracket mean" `Quick bracket_is_mean_of_two_kernels;
          Alcotest.test_case "kernel time never in run_s" `Quick kernel_never_in_run_s;
          Alcotest.test_case "kernel time never in setup_s" `Quick kernel_never_in_setup_s;
          Alcotest.test_case "drift between operations" `Quick drifting_host_normalizes ] );
      ( "percentiles",
        [ Alcotest.test_case "tail rule" `Quick tail_rule;
          Alcotest.test_case "python quartiles" `Quick quartiles_match_python ] );
      ( "metrics",
        [ Alcotest.test_case "names valid" `Quick metric_names_valid;
          Alcotest.test_case "BENCHMARK.json names" `Quick benchmark_json_names ] );
      ( "checks",
        [ Alcotest.test_case "mismatch counts as failed" `Quick mismatch_counts_as_failed;
          Alcotest.test_case "span self time" `Quick spans_self_time ] ) ]
