(* Telemetry-library tests: JSON round-trips, metric instrument
   semantics, event timelines and their exports, and an end-to-end
   check that a collected run publishes GC lifecycle events. *)

(* --- Json -------------------------------------------------------------- *)

let rec json_equal a b =
  match (a, b) with
  | Obs.Json.Null, Obs.Json.Null -> true
  | Obs.Json.Bool x, Obs.Json.Bool y -> x = y
  | Obs.Json.Int x, Obs.Json.Int y -> x = y
  | Obs.Json.Float x, Obs.Json.Float y -> x = y
  | Obs.Json.Str x, Obs.Json.Str y -> x = y
  | Obs.Json.List xs, Obs.Json.List ys ->
    List.length xs = List.length ys && List.for_all2 json_equal xs ys
  | Obs.Json.Obj xs, Obs.Json.Obj ys ->
    List.length xs = List.length ys
    && List.for_all2
         (fun (k, v) (k', v') -> k = k' && json_equal v v')
         xs ys
  | _ -> false

let sample_doc =
  Obs.Json.Obj
    [ ("null", Obs.Json.Null);
      ("yes", Obs.Json.Bool true);
      ("no", Obs.Json.Bool false);
      ("int", Obs.Json.Int (-42));
      ("float", Obs.Json.Float 0.5);
      ("whole", Obs.Json.Float 3.0);
      ("str", Obs.Json.Str "line\nbreak \"quoted\" \\ tab\t");
      ("list", Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Str "two" ]);
      ("empty_list", Obs.Json.List []);
      ("empty_obj", Obs.Json.Obj [])
    ]

let test_json_roundtrip () =
  let compact = Obs.Json.to_string sample_doc in
  (match Obs.Json.of_string compact with
   | Ok j -> Alcotest.(check bool) "compact round-trip" true (json_equal j sample_doc)
   | Error msg -> Alcotest.fail ("compact: " ^ msg));
  match Obs.Json.of_string (Obs.Json.to_pretty_string sample_doc) with
  | Ok j -> Alcotest.(check bool) "pretty round-trip" true (json_equal j sample_doc)
  | Error msg -> Alcotest.fail ("pretty: " ^ msg)

let test_json_floats_stay_floats () =
  (* An integral float must not come back as Int. *)
  match Obs.Json.of_string (Obs.Json.to_string (Obs.Json.Float 3.0)) with
  | Ok (Obs.Json.Float f) -> Alcotest.(check (float 0.)) "value" 3.0 f
  | Ok _ -> Alcotest.fail "reparsed as a non-float"
  | Error msg -> Alcotest.fail msg

let test_json_errors () =
  List.iter
    (fun s ->
      match Obs.Json.of_string s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" s)
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{'a':1}" ]

let test_json_accessors () =
  let j = Obs.Json.Obj [ ("a", Obs.Json.Int 7); ("b", Obs.Json.Str "x") ] in
  Alcotest.(check (option int)) "member a" (Some 7)
    (Option.bind (Obs.Json.member "a" j) Obs.Json.to_int);
  Alcotest.(check (option string)) "member b" (Some "x")
    (Option.bind (Obs.Json.member "b" j) Obs.Json.to_str);
  Alcotest.(check bool) "missing member" true (Obs.Json.member "c" j = None)

(* --- Metrics ----------------------------------------------------------- *)

let test_counter () =
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter reg "test.count" in
  Alcotest.(check int) "starts at zero" 0 (Obs.Metrics.Counter.value c);
  Obs.Metrics.Counter.incr c;
  Obs.Metrics.Counter.add c 10;
  Alcotest.(check int) "incr + add" 11 (Obs.Metrics.Counter.value c);
  Obs.Metrics.Counter.set c 5;
  Alcotest.(check int) "set overwrites" 5 (Obs.Metrics.Counter.value c)

let test_disabled_registry () =
  let reg = Obs.Metrics.create ~enabled:false () in
  let c = Obs.Metrics.counter reg "test.count" in
  let g = Obs.Metrics.gauge reg "test.gauge" in
  let h = Obs.Metrics.histogram reg "test.hist" ~buckets:[| 1.; 2. |] in
  Obs.Metrics.Counter.incr c;
  Obs.Metrics.Counter.add c 100;
  Obs.Metrics.Gauge.set g 3.5;
  Obs.Metrics.Histogram.observe h 1.5;
  Alcotest.(check int) "counter untouched" 0 (Obs.Metrics.Counter.value c);
  Alcotest.(check (float 0.)) "gauge untouched" 0. (Obs.Metrics.Gauge.value g);
  Alcotest.(check int) "histogram untouched" 0 (Obs.Metrics.Histogram.count h);
  (* Counter.set publishes even when disabled (external totals). *)
  Obs.Metrics.Counter.set c 9;
  Alcotest.(check int) "set bypasses" 9 (Obs.Metrics.Counter.value c);
  (* flipping the switch turns updates back on *)
  Obs.Metrics.set_enabled reg true;
  Obs.Metrics.Counter.incr c;
  Alcotest.(check int) "re-enabled" 10 (Obs.Metrics.Counter.value c)

let test_idempotent_registration () =
  let reg = Obs.Metrics.create () in
  let a = Obs.Metrics.counter reg "shared" in
  let b = Obs.Metrics.counter reg "shared" in
  Obs.Metrics.Counter.incr a;
  Obs.Metrics.Counter.incr b;
  Alcotest.(check int) "same instrument" 2 (Obs.Metrics.Counter.value a);
  Alcotest.check_raises "type mismatch"
    (Invalid_argument
       "Obs.Metrics: \"shared\" already registered as a different instrument \
        type (wanted gauge)")
    (fun () -> ignore (Obs.Metrics.gauge reg "shared"))

let test_histogram () =
  let reg = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram reg "h" ~buckets:[| 10.; 100.; 1000. |] in
  List.iter (Obs.Metrics.Histogram.observe_int h) [ 5; 10; 50; 500; 5000 ];
  Alcotest.(check int) "count" 5 (Obs.Metrics.Histogram.count h);
  Alcotest.(check (float 0.)) "sum" 5565. (Obs.Metrics.Histogram.sum h);
  (* le 10 -> {5,10}; le 100 -> {50}; le 1000 -> {500}; +inf -> {5000} *)
  Alcotest.(check (array int)) "buckets" [| 2; 1; 1; 1 |]
    (Obs.Metrics.Histogram.bucket_counts h);
  Alcotest.check_raises "unsorted buckets"
    (Invalid_argument
       "Obs.Metrics.histogram: buckets must be non-empty and strictly \
        increasing")
    (fun () -> ignore (Obs.Metrics.histogram reg "bad" ~buckets:[| 2.; 1. |]))

let test_reset () =
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter reg "c" in
  let h = Obs.Metrics.histogram reg "h" ~buckets:[| 1. |] in
  Obs.Metrics.Counter.add c 3;
  Obs.Metrics.Histogram.observe h 0.5;
  Obs.Metrics.reset reg;
  Alcotest.(check int) "counter zeroed" 0 (Obs.Metrics.Counter.value c);
  Alcotest.(check int) "histogram zeroed" 0 (Obs.Metrics.Histogram.count h);
  (* the registration survives the reset *)
  Obs.Metrics.Counter.incr (Obs.Metrics.counter reg "c");
  Alcotest.(check int) "still the same cell" 1 (Obs.Metrics.Counter.value c)

let test_metrics_json () =
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter ~help:"a counter" reg "c" in
  let g = Obs.Metrics.gauge reg "g" in
  let h = Obs.Metrics.histogram reg "h" ~buckets:[| 1.; 2. |] in
  Obs.Metrics.Counter.add c 4;
  Obs.Metrics.Gauge.set g 2.5;
  Obs.Metrics.Histogram.observe h 1.5;
  let j = Obs.Metrics.to_json reg in
  (* the export must itself be valid JSON *)
  (match Obs.Json.of_string (Obs.Json.to_string j) with
   | Ok _ -> ()
   | Error msg -> Alcotest.fail msg);
  let counter_value =
    Option.bind (Obs.Json.member "c" j) (fun cj ->
        Option.bind (Obs.Json.member "value" cj) Obs.Json.to_int)
  in
  Alcotest.(check (option int)) "counter value" (Some 4) counter_value;
  let bucket_count =
    Option.bind (Obs.Json.member "h" j) (fun hj ->
        Option.bind (Obs.Json.member "buckets" hj) Obs.Json.to_list)
  in
  Alcotest.(check (option int)) "buckets incl +inf" (Some 3)
    (Option.map List.length bucket_count)

let test_counter_set_ignores_enabled () =
  (* Pinned semantics: Counter.set writes through even on a disabled
     registry.  It publishes externally-computed totals (cache sweep
     counters, run statistics), which must land regardless of whether
     live instrumentation is switched on.  See the .mli note. *)
  let reg = Obs.Metrics.create ~enabled:false () in
  let c = Obs.Metrics.counter reg "external.total" in
  Obs.Metrics.Counter.incr c;
  Alcotest.(check int) "incr is gated" 0 (Obs.Metrics.Counter.value c);
  Obs.Metrics.Counter.set c 42;
  Alcotest.(check int) "set bypasses the gate" 42
    (Obs.Metrics.Counter.value c);
  (* and the bypassed value is what exports *)
  let exported =
    Option.bind
      (Obs.Json.member "external.total" (Obs.Metrics.to_json reg))
      (fun cj -> Option.bind (Obs.Json.member "value" cj) Obs.Json.to_int)
  in
  Alcotest.(check (option int)) "exported" (Some 42) exported

let test_histogram_quantile () =
  let reg = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram reg "h" ~buckets:[| 10.; 100.; 1000. |] in
  Alcotest.(check bool) "empty histogram is nan" true
    (Float.is_nan (Obs.Metrics.Histogram.quantile h 0.5));
  List.iter (Obs.Metrics.Histogram.observe_int h) [ 5; 10; 50; 500; 5000 ];
  (* buckets: le 10 -> 2, le 100 -> 1, le 1000 -> 1, +inf -> 1 *)
  let q = Obs.Metrics.Histogram.quantile h in
  (* p50: target 2.5 lands in (10, 100], half-way through its single
     observation *)
  Alcotest.(check (float 1e-9)) "p50 interpolates" 55.0 (q 0.5);
  (* p20: target 1.0 lands in the first bucket, whose lower edge
     clamps at 0 *)
  Alcotest.(check (float 1e-9)) "first bucket starts at 0" 5.0 (q 0.2);
  (* overflow observations clamp to the last finite bound *)
  Alcotest.(check (float 1e-9)) "p99 clamps to last bound" 1000.0 (q 0.99);
  Alcotest.(check (float 1e-9)) "q below 0 clamps" (q 0.0) (q (-1.0));
  Alcotest.(check (float 1e-9)) "q above 1 clamps" (q 1.0) (q 2.0)

let test_percentile_export () =
  let reg = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram reg "lat" ~buckets:[| 10.; 100. |] in
  (* empty histogram: no percentile keys *)
  let member_h j = Obs.Json.member "lat" j in
  let p name =
    Option.bind (member_h (Obs.Metrics.to_json reg)) (fun hj ->
        match Obs.Json.member name hj with
        | Some (Obs.Json.Float f) -> Some f
        | _ -> None)
  in
  (match p "p50" with
   | None -> ()
   | Some _ -> Alcotest.fail "empty histogram exported percentiles");
  List.iter (Obs.Metrics.Histogram.observe_int h) [ 5; 50; 500 ];
  Alcotest.(check bool) "p50 present" true (p "p50" <> None);
  Alcotest.(check bool) "p90 present" true (p "p90" <> None);
  Alcotest.(check bool) "p99 present" true (p "p99" <> None);
  Alcotest.(check (option (float 1e-9))) "p50 value"
    (Some (Obs.Metrics.Histogram.quantile h 0.5))
    (p "p50")

(* --- Events ------------------------------------------------------------ *)

let test_timeline_clock () =
  let tl = Obs.Events.create () in
  Obs.Events.instant tl "a";
  Obs.Events.instant tl "b";
  Obs.Events.instant tl ~ts:99 "c";
  Alcotest.(check int) "default clock counts" 1 (Obs.Events.get tl 0).Obs.Events.ts;
  Alcotest.(check int) "second tick" 2 (Obs.Events.get tl 1).Obs.Events.ts;
  Alcotest.(check int) "explicit ts wins" 99 (Obs.Events.get tl 2).Obs.Events.ts;
  let time = ref 1000 in
  Obs.Events.set_clock tl (fun () -> !time);
  Obs.Events.instant tl "d";
  Alcotest.(check int) "external clock" 1000 (Obs.Events.get tl 3).Obs.Events.ts;
  Obs.Events.clear tl;
  Alcotest.(check int) "cleared" 0 (Obs.Events.length tl)

let test_timeline_growth () =
  let tl = Obs.Events.create () in
  for i = 1 to 1000 do
    Obs.Events.instant tl ~ts:i "e"
  done;
  Alcotest.(check int) "all retained" 1000 (Obs.Events.length tl);
  Alcotest.(check int) "order kept" 1000 (Obs.Events.get tl 999).Obs.Events.ts

let test_jsonl_roundtrip () =
  let tl = Obs.Events.create () in
  Obs.Events.span_begin tl ~ts:10 ~cat:"gc" ~args:[ ("n", Obs.Events.I 3) ]
    "gc.collection";
  Obs.Events.span_end tl ~ts:20 ~cat:"gc"
    ~args:
      [ ("bytes_copied", Obs.Events.I 4096);
        ("ratio", Obs.Events.F 0.25);
        ("collector", Obs.Events.S "cheney")
      ]
    "gc.collection";
  Obs.Events.instant tl ~ts:21 "marker";
  Obs.Events.sample tl ~ts:22 ~args:[ ("occupancy", Obs.Events.F 0.5) ] "heap";
  let text = Obs.Events.to_jsonl_string tl in
  Alcotest.(check int) "one line per event" 4
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' text)));
  match Obs.Events.of_jsonl_string text with
  | Error msg -> Alcotest.fail msg
  | Ok evs ->
    Alcotest.(check bool) "round-trips exactly" true
      (evs = Obs.Events.events tl)

let test_jsonl_bad_line () =
  (match Obs.Events.of_jsonl_string "\n\n" with
   | Ok [] -> ()
   | Ok _ -> Alcotest.fail "blank lines should yield no events"
   | Error msg -> Alcotest.fail msg);
  match
    Obs.Events.of_jsonl_string
      "{\"ts\":1,\"name\":\"a\",\"kind\":\"instant\"}\nnot json\n"
  with
  | Ok _ -> Alcotest.fail "malformed line accepted"
  | Error msg ->
    Alcotest.(check bool) "error names line 2" true
      (String.length msg >= 7 && String.sub msg 0 7 = "line 2:")

let test_chrome_trace () =
  let tl = Obs.Events.create () in
  Obs.Events.span_begin tl ~ts:5 ~cat:"gc" "gc.collection";
  Obs.Events.span_end tl ~ts:9 ~cat:"gc" "gc.collection";
  Obs.Events.instant tl ~ts:10 "marker";
  Obs.Events.sample tl ~ts:11 ~args:[ ("v", Obs.Events.I 1) ] "counter";
  let j = Obs.Events.to_chrome_trace tl in
  let evs =
    match Option.bind (Obs.Json.member "traceEvents" j) Obs.Json.to_list with
    | Some evs -> evs
    | None -> Alcotest.fail "no traceEvents"
  in
  let ph i =
    Option.bind (Obs.Json.member "ph" (List.nth evs i)) Obs.Json.to_str
  in
  Alcotest.(check (list (option string))) "phase letters"
    [ Some "B"; Some "E"; Some "i"; Some "C" ]
    [ ph 0; ph 1; ph 2; ph 3 ];
  Alcotest.(check (option string)) "default category" (Some "repro")
    (Option.bind (Obs.Json.member "cat" (List.nth evs 2)) Obs.Json.to_str);
  match Obs.Json.of_string (Obs.Json.to_string j) with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg

(* --- The streaming JSONL writer ---------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_jsonl_writer_file () =
  let path = Filename.temp_file "test_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (* a tiny batch bound forces several intermediate flushes *)
      let w = Obs.Jsonl.create ~batch_bytes:16 path in
      for i = 1 to 50 do
        Obs.Jsonl.write w
          (Obs.Json.Obj [ ("i", Obs.Json.Int i); ("s", Obs.Json.Str "x\n") ])
      done;
      Alcotest.(check int) "lines counted" 50 (Obs.Jsonl.written w);
      Obs.Jsonl.close w;
      Obs.Jsonl.close w;
      (* idempotent *)
      Alcotest.check_raises "write after close"
        (Invalid_argument "Obs.Jsonl.write: writer is closed") (fun () ->
          Obs.Jsonl.write w Obs.Json.Null);
      let lines =
        List.filter
          (fun l -> l <> "")
          (String.split_on_char '\n' (read_file path))
      in
      Alcotest.(check int) "one line per value" 50 (List.length lines);
      List.iteri
        (fun idx l ->
          match Obs.Json.of_string l with
          | Ok j ->
            Alcotest.(check (option int)) "payload intact" (Some (idx + 1))
              (Option.bind (Obs.Json.member "i" j) Obs.Json.to_int)
          | Error msg ->
            Alcotest.fail (Printf.sprintf "line %d: %s" (idx + 1) msg))
        lines)

let test_jsonl_writer_borrowed () =
  let path = Filename.temp_file "test_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      let w = Obs.Jsonl.to_channel oc in
      Obs.Jsonl.write w (Obs.Json.Int 1);
      Obs.Jsonl.close w;
      (* the channel stays usable: the writer borrowed it *)
      output_string oc "trailer\n";
      close_out oc;
      Alcotest.(check string) "writer flushed, channel kept open"
        "1\ntrailer\n" (read_file path))

let test_events_write_jsonl_streams () =
  (* the streamed file must be byte-identical to the eager encoding *)
  let tl = Obs.Events.create () in
  Obs.Events.span_begin tl ~ts:1 ~cat:"gc" ~args:[ ("n", Obs.Events.I 7) ]
    "gc.collection";
  Obs.Events.span_end tl ~ts:5 ~cat:"gc"
    ~args:[ ("ratio", Obs.Events.F 0.25) ]
    "gc.collection";
  Obs.Events.instant tl ~ts:6 "quote\"backslash\\";
  let path = Filename.temp_file "test_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Events.write_jsonl tl path;
      Alcotest.(check string) "streamed = eager"
        (Obs.Events.to_jsonl_string tl)
        (read_file path))

(* --- Property: the JSONL export round-trips bit-identically ------------ *)

let event_gen =
  let open QCheck.Gen in
  (* Bytes 0-255 exercise every escaping path: controls, quote,
     backslash, and raw high bytes passed through untouched. *)
  let raw_string = string_size ~gen:(map Char.chr (int_range 0 255)) (int_bound 12) in
  let arg =
    frequency
      [ (3, map (fun i -> Obs.Events.I i) (int_range (-1_000_000) 1_000_000));
        (* quarters are exact in binary and survive the float
           printer's shortest-form round-trip *)
        (2, map (fun i -> Obs.Events.F (float_of_int i /. 4.0))
             (int_range (-4_000) 4_000));
        (2, map (fun s -> Obs.Events.S s) raw_string)
      ]
  in
  let kind =
    oneofl
      [ Obs.Events.Instant; Obs.Events.Begin; Obs.Events.End;
        Obs.Events.Sample ]
  in
  map
    (fun (ts, name, cat, kind, args) ->
      { Obs.Events.ts; name; cat; kind; args })
    (tup5 (int_bound 1_000_000) raw_string raw_string kind
       (list_size (int_bound 4) (tup2 raw_string arg)))

let timeline_of_events evs =
  let tl = Obs.Events.create () in
  List.iter
    (fun e ->
      Obs.Events.emit tl ~ts:e.Obs.Events.ts ~cat:e.Obs.Events.cat
        ~args:e.Obs.Events.args e.Obs.Events.kind e.Obs.Events.name)
    evs;
  tl

let jsonl_roundtrip_prop =
  QCheck.Test.make ~count:200 ~name:"jsonl export round-trips bit-identically"
    (QCheck.make
       ~print:(fun evs -> Obs.Events.to_jsonl_string (timeline_of_events evs))
       QCheck.Gen.(list_size (int_bound 12) event_gen))
    (fun evs ->
      let s1 = Obs.Events.to_jsonl_string (timeline_of_events evs) in
      match Obs.Events.of_jsonl_string s1 with
      | Error msg -> QCheck.Test.fail_report msg
      | Ok evs' ->
        evs' = evs
        && Obs.Events.to_jsonl_string (timeline_of_events evs') = s1)

(* --- End to end: a collected run emits GC telemetry ------------------- *)

let test_gc_run_emits_events () =
  let tl = Obs.Events.create () in
  let r, recording =
    Core.Runner.record ~scale:1
      ~gc:(Vscheme.Machine.Cheney { semispace_bytes = 256 * 1024 })
      ~events:tl Workloads.Workload.nbody
  in
  Memsim.Recording.release recording;
  let collections = r.Core.Runner.stats.Vscheme.Machine.collections in
  Alcotest.(check bool) "the run collected" true (collections >= 1);
  let evs = Obs.Events.events tl in
  let begins =
    List.filter
      (fun e ->
        e.Obs.Events.name = "gc.collection" && e.Obs.Events.kind = Obs.Events.Begin)
      evs
  in
  let ends =
    List.filter
      (fun e ->
        e.Obs.Events.name = "gc.collection" && e.Obs.Events.kind = Obs.Events.End)
      evs
  in
  Alcotest.(check int) "one Begin per collection" collections
    (List.length begins);
  Alcotest.(check int) "one End per collection" collections (List.length ends);
  (* every End carries a plausible bytes_copied *)
  List.iter
    (fun e ->
      match List.assoc_opt "bytes_copied" e.Obs.Events.args with
      | Some (Obs.Events.I b) ->
        Alcotest.(check bool) "bytes_copied plausible" true
          (b > 0 && b <= 256 * 1024)
      | _ -> Alcotest.fail "End without bytes_copied")
    ends;
  (* timestamps are the simulated instruction clock: nondecreasing *)
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      a.Obs.Events.ts <= b.Obs.Events.ts && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "timestamps nondecreasing" true (sorted evs);
  (* phase markers from the runner *)
  Alcotest.(check bool) "phase.run marker present" true
    (List.exists (fun e -> e.Obs.Events.name = "phase.run") evs);
  (* the shared gc.* counters tracked the same run *)
  Alcotest.(check bool) "gc.collections counted" true
    (Obs.Metrics.Counter.value Vscheme.Gc_obs.collections >= collections)

let test_telemetry_document () =
  let tel = Core.Telemetry.create () in
  let cache =
    Memsim.Level.create
      (Memsim.Level.config ~size_bytes:(64 * 1024) ~block_bytes:64 ~ways:1 ())
  in
  let r, recording =
    Core.Runner.record ~scale:1
      ~gc:(Vscheme.Machine.Cheney { semispace_bytes = 256 * 1024 })
      ~events:(Core.Telemetry.timeline tel) Workloads.Workload.lred
  in
  Memsim.Recording.replay recording (Memsim.Level.sink cache);
  Memsim.Recording.release recording;
  Core.Telemetry.record_run tel r;
  Core.Telemetry.record_cache tel (Memsim.Level.stats cache);
  let j = Core.Telemetry.to_json tel in
  (match Obs.Json.of_string (Obs.Json.to_string j) with
   | Ok _ -> ()
   | Error msg -> Alcotest.fail msg);
  let metric name =
    Option.bind (Obs.Json.member "metrics" j) (fun m ->
        Option.bind (Obs.Json.member name m) (fun c ->
            Option.bind (Obs.Json.member "value" c) Obs.Json.to_int))
  in
  (* per-phase cache counters are present and consistent *)
  let s = Memsim.Level.stats cache in
  Alcotest.(check (option int)) "mutator misses" (Some s.Memsim.Cache.misses)
    (metric "cache.mutator.misses");
  Alcotest.(check (option int)) "collector misses"
    (Some s.Memsim.Cache.collector_misses)
    (metric "cache.collector.misses");
  Alcotest.(check bool) "collector saw traffic" true
    (s.Memsim.Cache.collector_refs > 0);
  (* the events list holds the GC lifecycle *)
  let events =
    Option.bind (Obs.Json.member "events" j) Obs.Json.to_list
  in
  let is_gc e =
    Option.bind (Obs.Json.member "name" e) Obs.Json.to_str
    = Some "gc.collection"
  in
  Alcotest.(check bool) "gc events exported" true
    (match events with Some evs -> List.exists is_gc evs | None -> false);
  Alcotest.(check (option string)) "collector meta" (Some "cheney")
    (Option.bind (Obs.Json.member "meta" j) (fun m ->
         Option.bind (Obs.Json.member "collector" m) Obs.Json.to_str))

let test_of_recording () =
  let rec_ = Memsim.Recording.create () in
  let sink = Memsim.Recording.sink rec_ in
  let push phase =
    sink.Memsim.Trace.access 0 Memsim.Trace.Read phase
  in
  push Memsim.Trace.Mutator;
  push Memsim.Trace.Collector;
  push Memsim.Trace.Collector;
  push Memsim.Trace.Mutator;
  push Memsim.Trace.Collector;
  let tl = Core.Telemetry.of_recording rec_ in
  let spans =
    List.filter
      (fun e -> e.Obs.Events.name = "gc.collection")
      (Obs.Events.events tl)
  in
  (* two collector episodes -> two Begin/End pairs (one closed at EOF) *)
  Alcotest.(check int) "two spans" 4 (List.length spans);
  match List.rev spans with
  | last :: _ ->
    Alcotest.(check bool) "closed at end of trace" true
      (last.Obs.Events.kind = Obs.Events.End && last.Obs.Events.ts = 5)
  | [] -> Alcotest.fail "no spans"

let () =
  Alcotest.run "obs"
    [ ( "json",
        [ Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "floats stay floats" `Quick
            test_json_floats_stay_floats;
          Alcotest.test_case "rejects malformed input" `Quick test_json_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors
        ] );
      ( "metrics",
        [ Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "disabled registry" `Quick test_disabled_registry;
          Alcotest.test_case "idempotent registration" `Quick
            test_idempotent_registration;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "counter.set ignores enabled" `Quick
            test_counter_set_ignores_enabled;
          Alcotest.test_case "histogram quantile" `Quick
            test_histogram_quantile;
          Alcotest.test_case "percentile export" `Quick test_percentile_export;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "json export" `Quick test_metrics_json
        ] );
      ( "events",
        [ Alcotest.test_case "clock" `Quick test_timeline_clock;
          Alcotest.test_case "growth" `Quick test_timeline_growth;
          Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "jsonl bad line" `Quick test_jsonl_bad_line;
          Alcotest.test_case "jsonl writer" `Quick test_jsonl_writer_file;
          Alcotest.test_case "jsonl writer borrows" `Quick
            test_jsonl_writer_borrowed;
          Alcotest.test_case "write_jsonl streams" `Quick
            test_events_write_jsonl_streams;
          QCheck_alcotest.to_alcotest jsonl_roundtrip_prop;
          Alcotest.test_case "chrome trace" `Quick test_chrome_trace
        ] );
      ( "end-to-end",
        [ Alcotest.test_case "gc run emits events" `Quick
            test_gc_run_emits_events;
          Alcotest.test_case "telemetry document" `Quick
            test_telemetry_document;
          Alcotest.test_case "timeline from recording" `Quick test_of_recording
        ] )
    ]
