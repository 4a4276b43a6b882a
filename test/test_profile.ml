(* Attribution-profiler tests: conservation of the per-region /
   per-phase / per-site accounting against the aggregate cache
   counters (differential, serial and parallel), sampling exactness,
   sidecar persistence, the attr checker rules, and the presentation
   pipeline (cook, heatmap rendering, collapsed stacks, overlays). *)

let sum = Array.fold_left ( + ) 0

(* Sum a num_slots profile array over one phase (0 mutator, 1
   collector). *)
let phase_sum (a : int array) ph =
  let t = ref 0 in
  for r = 0 to Memsim.Attr.num_regions - 1 do
    t := !t + a.((r * 2) + ph)
  done;
  !t

let small_caches =
  Memsim.Sweep.grid
    ~cache_sizes:[ 16 * 1024; 64 * 1024 ]
    ~block_sizes:[ 32 ] ()

(* --- Conservation: attribution sums to the aggregate counters ------- *)

(* Replay one captured recording twice over the same cache grid — once
   plain (the oracle), once attributed — and check that (1) aggregate
   statistics are bit-identical, and (2) with every chunk attributed,
   each profile array sums per phase to the corresponding aggregate
   counter exactly. *)
let check_conservation ?gc ?(jobs = Core.Runner.jobs ()) ?(sample_every = 1) w
    =
  let _r, recording, table, addr_limit =
    Core.Profile.capture ?gc ~scale:1 w
  in
  let events = Memsim.Recording.length recording in
  Alcotest.(check bool) "trace is non-trivial" true (events > 0);
  let plain = Memsim.Sweep.create small_caches in
  Memsim.Sweep.run_serial plain recording;
  let swept = Memsim.Sweep.create small_caches in
  let profiles =
    Memsim.Sweep.run_attributed ~jobs ~sample_every ~addr_limit swept table
      recording
  in
  let oracle = Memsim.Sweep.results plain in
  let attributed = Memsim.Sweep.results swept in
  List.iteri
    (fun i ((_, s), (_, s')) ->
      let open Memsim.Cache in
      let p = profiles.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "cache %d: aggregate stats bit-identical" i)
        true (s = s');
      Alcotest.(check int) "sample rate echoed" sample_every
        p.Memsim.Attr.sample_every;
      Alcotest.(check int) "every chunk counted"
        ((events + Memsim.Chunk.default_chunk_events - 1)
        / Memsim.Chunk.default_chunk_events)
        p.Memsim.Attr.chunks_seen;
      Alcotest.(check int) "sampled chunk count"
        ((p.Memsim.Attr.chunks_seen + sample_every - 1) / sample_every)
        p.Memsim.Attr.chunks_attributed;
      if sample_every = 1 then begin
        Alcotest.(check int) "all events attributed" events
          p.Memsim.Attr.events_attributed;
        (* Each array, summed per phase, equals the aggregate. *)
        Alcotest.(check int) "mutator refs" s.refs
          (phase_sum p.Memsim.Attr.refs 0);
        Alcotest.(check int) "collector refs" s.collector_refs
          (phase_sum p.Memsim.Attr.refs 1);
        Alcotest.(check int) "mutator misses" s.misses
          (phase_sum p.Memsim.Attr.misses 0);
        Alcotest.(check int) "collector misses" s.collector_misses
          (phase_sum p.Memsim.Attr.misses 1);
        Alcotest.(check int) "alloc misses" s.alloc_misses
          (sum p.Memsim.Attr.alloc_misses);
        Alcotest.(check int) "mutator fetches" s.fetches
          (phase_sum p.Memsim.Attr.fetches 0);
        Alcotest.(check int) "collector fetches" s.collector_fetches
          (phase_sum p.Memsim.Attr.fetches 1);
        Alcotest.(check int) "writebacks" s.writebacks
          (sum p.Memsim.Attr.writebacks);
        Alcotest.(check int) "collector writebacks" s.collector_writebacks
          (phase_sum p.Memsim.Attr.writebacks 1);
        Alcotest.(check int) "writes" s.writes (sum p.Memsim.Attr.writes);
        Alcotest.(check int) "collector writes" s.collector_writes
          (phase_sum p.Memsim.Attr.writes 1);
        (* Site accounting conserves the same alloc-miss total. *)
        Alcotest.(check int) "site alloc misses" s.alloc_misses
          (sum p.Memsim.Attr.site_alloc_misses);
        (* Every miss lands in exactly one heat cell and one
           region-time cell. *)
        let total_misses = s.misses + s.collector_misses in
        Alcotest.(check int) "heat total" total_misses
          (sum p.Memsim.Attr.heat);
        Alcotest.(check int) "region-time total" total_misses
          (sum p.Memsim.Attr.region_time)
      end
      else begin
        (* Sampling thins attribution but never the aggregates
           (checked above); attributed tallies stay internally
           consistent and bounded. *)
        Alcotest.(check bool) "attributed events bounded" true
          (p.Memsim.Attr.events_attributed <= events);
        Alcotest.(check bool) "attributed misses bounded" true
          (sum p.Memsim.Attr.misses <= s.misses + s.collector_misses);
        Alcotest.(check int) "heat matches attributed misses"
          (sum p.Memsim.Attr.misses)
          (sum p.Memsim.Attr.heat);
        Alcotest.(check int) "sites match attributed alloc misses"
          (sum p.Memsim.Attr.alloc_misses)
          (sum p.Memsim.Attr.site_alloc_misses);
        if p.Memsim.Attr.chunks_seen > 1 then
          Alcotest.(check bool) "sampling actually skipped chunks" true
            (p.Memsim.Attr.chunks_attributed < p.Memsim.Attr.chunks_seen)
      end;
      (* A site can only miss on an initializing store it performed. *)
      Array.iteri
        (fun si am ->
          Alcotest.(check bool)
            (Printf.sprintf "site %d misses <= writes" si)
            true
            (am <= p.Memsim.Attr.site_alloc_writes.(si)))
        p.Memsim.Attr.site_alloc_misses)
    (List.combine oracle attributed)

let test_conservation_nogc () =
  List.iter check_conservation
    [ Workloads.Workload.nbody; Workloads.Workload.mexpr ]

let test_conservation_gc () =
  check_conservation
    ~gc:(Vscheme.Machine.Cheney { semispace_bytes = 256 * 1024 })
    Workloads.Workload.nbody

let test_conservation_parallel () =
  check_conservation ~jobs:2
    ~gc:(Vscheme.Machine.Cheney { semispace_bytes = 256 * 1024 })
    Workloads.Workload.nbody

let test_conservation_sampled () =
  check_conservation ~sample_every:4
    ~gc:(Vscheme.Machine.Cheney { semispace_bytes = 256 * 1024 })
    Workloads.Workload.nbody

(* A collected run must attribute real traffic to the dynamic regions
   and to at least one non-runtime allocation site. *)
let test_attribution_is_meaningful () =
  let _r, recording, table, addr_limit =
    Core.Profile.capture
      ~gc:(Vscheme.Machine.Cheney { semispace_bytes = 256 * 1024 })
      ~scale:1 Workloads.Workload.nbody
  in
  let swept =
    Memsim.Sweep.create
      (Memsim.Sweep.grid ~cache_sizes:[ 64 * 1024 ] ~block_sizes:[ 32 ] ())
  in
  let profiles =
    Memsim.Sweep.run_attributed ~addr_limit swept table recording
  in
  let p = profiles.(0) in
  Alcotest.(check bool) "region map was published" true
    (Memsim.Attr.num_epochs table > 0);
  Alcotest.(check bool) "several sites interned" true
    (Memsim.Attr.num_sites table > 1);
  let tospace_refs =
    p.Memsim.Attr.refs.(Memsim.Attr.region_tospace * 2)
    + p.Memsim.Attr.refs.((Memsim.Attr.region_tospace * 2) + 1)
  in
  Alcotest.(check bool) "tospace saw traffic" true (tospace_refs > 0);
  Alcotest.(check bool) "static saw traffic" true
    (p.Memsim.Attr.refs.(Memsim.Attr.region_static * 2) > 0);
  let collector_refs = phase_sum p.Memsim.Attr.refs 1 in
  Alcotest.(check bool) "collector phase attributed" true
    (collector_refs > 0);
  let named_site_misses =
    let t = ref 0 in
    Array.iteri
      (fun i am -> if i <> Memsim.Attr.runtime_site then t := !t + am)
      p.Memsim.Attr.site_alloc_misses;
    !t
  in
  Alcotest.(check bool) "non-runtime sites own alloc misses" true
    (named_site_misses > 0)

(* --- Sidecar persistence ------------------------------------------- *)

let temp_path suffix =
  Filename.temp_file "test_profile" suffix

let test_attr_save_load () =
  let t = Memsim.Attr.create () in
  Memsim.Attr.publish_map t ~pos:0 ~stack_lo:100 ~dynamic_lo:200 ~to_lo:200
    ~to_hi:300 ~from_lo:300 ~from_hi:400;
  Memsim.Attr.publish_map t ~pos:50 ~stack_lo:100 ~dynamic_lo:200 ~to_lo:300
    ~to_hi:400 ~from_lo:200 ~from_hi:300;
  let s1 = Memsim.Attr.intern_site t "prim:cons" in
  let s2 = Memsim.Attr.intern_site t "closure:loop" in
  Memsim.Attr.note_site t ~pos:10 s1;
  Memsim.Attr.note_site t ~pos:20 s2;
  Memsim.Attr.note_site t ~pos:30 Memsim.Attr.runtime_site;
  let path = temp_path ".attr" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Memsim.Attr.save t path;
      let u = Memsim.Attr.load path in
      Alcotest.(check int) "epochs" (Memsim.Attr.num_epochs t)
        (Memsim.Attr.num_epochs u);
      Alcotest.(check int) "runs" (Memsim.Attr.num_runs t)
        (Memsim.Attr.num_runs u);
      Alcotest.(check int) "sites" (Memsim.Attr.num_sites t)
        (Memsim.Attr.num_sites u);
      for i = 0 to Memsim.Attr.num_sites t - 1 do
        Alcotest.(check string) "site name" (Memsim.Attr.site_name t i)
          (Memsim.Attr.site_name u i)
      done;
      for i = 0 to Memsim.Attr.num_epochs t - 1 do
        Alcotest.(check int) "epoch pos" t.Memsim.Attr.epoch_pos.(i)
          u.Memsim.Attr.epoch_pos.(i);
        Alcotest.(check int) "epoch to_lo" t.Memsim.Attr.epoch_to_lo.(i)
          u.Memsim.Attr.epoch_to_lo.(i);
        Alcotest.(check int) "epoch from_hi" t.Memsim.Attr.epoch_from_hi.(i)
          u.Memsim.Attr.epoch_from_hi.(i)
      done;
      for i = 0 to Memsim.Attr.num_runs t - 1 do
        Alcotest.(check int) "run pos" t.Memsim.Attr.run_pos.(i)
          u.Memsim.Attr.run_pos.(i);
        Alcotest.(check int) "run site" t.Memsim.Attr.run_site.(i)
          u.Memsim.Attr.run_site.(i)
      done;
      Alcotest.(check bool) "clipped flag" (Memsim.Attr.sites_clipped t)
        (Memsim.Attr.sites_clipped u))

let test_attr_load_rejects_garbage () =
  let path = temp_path ".attr" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "not an attribution sidecar";
      close_out oc;
      match Memsim.Attr.load path with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "garbage sidecar loaded")

(* --- The checker --------------------------------------------------- *)

let rules results =
  List.map (fun f -> f.Check.Finding.rule) results
  |> List.sort_uniq String.compare

let test_attr_check_clean () =
  let t = Memsim.Attr.create () in
  Memsim.Attr.publish_map t ~pos:0 ~stack_lo:100 ~dynamic_lo:200 ~to_lo:200
    ~to_hi:300 ~from_lo:300 ~from_hi:400;
  let s = Memsim.Attr.intern_site t "prim:cons" in
  Memsim.Attr.note_site t ~pos:10 s;
  let path = temp_path ".attr" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Memsim.Attr.save t path;
      let r = Check.Attr_check.scan ~events:100 path in
      Alcotest.(check bool) "table loaded" true (r.Check.Attr_check.table <> None);
      Alcotest.(check (list string)) "no findings" []
        (rules r.Check.Attr_check.findings))

let test_attr_check_rules () =
  (* map-range: tospace interval dips below the dynamic floor *)
  let t = Memsim.Attr.create () in
  Memsim.Attr.publish_map t ~pos:0 ~stack_lo:100 ~dynamic_lo:200 ~to_lo:150
    ~to_hi:300 ~from_lo:300 ~from_hi:400;
  let path = temp_path ".attr" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Memsim.Attr.save t path;
      let r = Check.Attr_check.scan ~events:100 path in
      Alcotest.(check bool) "attr.map-range fires" true
        (List.mem "attr.map-range" (rules r.Check.Attr_check.findings)));
  (* events-bound: positions beyond the recording *)
  let t = Memsim.Attr.create () in
  Memsim.Attr.publish_map t ~pos:500 ~stack_lo:100 ~dynamic_lo:200 ~to_lo:200
    ~to_hi:300 ~from_lo:300 ~from_hi:400;
  let path = temp_path ".attr" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Memsim.Attr.save t path;
      let r = Check.Attr_check.scan ~events:100 path in
      Alcotest.(check bool) "attr.events-bound fires" true
        (List.mem "attr.events-bound" (rules r.Check.Attr_check.findings)));
  (* no-epochs: a table that never saw a region map *)
  let t = Memsim.Attr.create () in
  let path = temp_path ".attr" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Memsim.Attr.save t path;
      let r = Check.Attr_check.scan path in
      Alcotest.(check bool) "attr.no-epochs fires" true
        (List.mem "attr.no-epochs" (rules r.Check.Attr_check.findings)));
  (* io: a missing file *)
  let r = Check.Attr_check.scan "/nonexistent/missing.attr" in
  Alcotest.(check bool) "attr.io fires" true
    (List.mem "attr.io" (rules r.Check.Attr_check.findings));
  (* format: a corrupt file *)
  let path = temp_path ".attr" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "ATTRSID1 but then garbage";
      close_out oc;
      let r = Check.Attr_check.scan path in
      Alcotest.(check bool) "attr.format fires" true
        (List.mem "attr.format" (rules r.Check.Attr_check.findings)))

(* A sidecar checked against too short a trace: 20 site runs out of
   bounds print 8 findings and one warning counting the other 12. *)
let test_attr_check_cap () =
  let t = Memsim.Attr.create () in
  Memsim.Attr.publish_map t ~pos:0 ~stack_lo:100 ~dynamic_lo:200 ~to_lo:200
    ~to_hi:300 ~from_lo:300 ~from_hi:400;
  let a = Memsim.Attr.intern_site t "prim:cons" in
  let b = Memsim.Attr.intern_site t "prim:vector" in
  for i = 0 to 19 do
    Memsim.Attr.note_site t ~pos:(100 + i) (if i land 1 = 0 then a else b)
  done;
  let path = temp_path ".attr" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Memsim.Attr.save t path;
      let r = Check.Attr_check.scan ~events:50 path in
      let bound =
        List.filter
          (fun f -> String.equal f.Check.Finding.rule "attr.events-bound")
          r.Check.Attr_check.findings
      in
      Alcotest.(check int) "8 errors and a suppression warning" 9
        (List.length bound);
      Alcotest.(check int) "8 of them errors" 8
        (List.length (Check.Finding.errors bound));
      Alcotest.(check (list string)) "the warning counts the rest"
        [ "12 further attr.events-bound finding(s) suppressed" ]
        (List.filter_map
           (fun f ->
             if Check.Finding.is_error f then None
             else Some f.Check.Finding.message)
           bound))

(* --- Heatmap rendering --------------------------------------------- *)

let test_heatmap_render () =
  let counts = [| 0; 1; 10; 1000; 0; 0; 5; 100 |] in
  let out =
    Format.asprintf "%a"
      (fun ppf () ->
        Analysis.Heatmap.render ppf
          ~row_label:(fun r -> Printf.sprintf "r%d" r)
          ~rows:2 ~cols:4 counts)
      ()
  in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check bool) "mentions the max cell" true
    (List.exists
       (fun l ->
         let n = String.length l in
         n >= 4 && String.sub l (n - 4) 4 = "1000")
       lines);
  (* the zero cell renders as the lowest ramp level, the max as the
     highest *)
  let ramp = Analysis.Heatmap.default_ramp in
  Alcotest.(check bool) "uses low ramp char" true
    (String.contains out ramp.[0]);
  Alcotest.(check bool) "uses high ramp char" true
    (String.contains out ramp.[String.length ramp - 1]);
  Alcotest.(check bool) "row labels present" true
    (List.exists
       (fun l ->
         String.length l >= 2 && String.sub l 0 2 = "r0")
       lines)

let test_heatmap_render_rejects () =
  Alcotest.check_raises "dim mismatch"
    (Invalid_argument "Heatmap.render: dimensions do not match counts")
    (fun () ->
      Analysis.Heatmap.render Format.str_formatter ~rows:2 ~cols:2
        [| 1; 2; 3 |])

(* --- The presentation pipeline ------------------------------------- *)

(* A hand-built profile with known numbers, cooked into the
   presentation model. *)
let cooked_fixture () =
  let table = Memsim.Attr.create () in
  let s_cons = Memsim.Attr.intern_site table "prim:cons" in
  let s_vec = Memsim.Attr.intern_site table "prim:make-vector" in
  let p =
    Memsim.Attr.profile_create ~heat_rows:2 ~heat_cols:2
      ~num_sites:(Memsim.Attr.num_sites table)
      ~addr_limit:1024 ~events:100 ()
  in
  let slot r ph = (r * 2) + ph in
  p.Memsim.Attr.refs.(slot Memsim.Attr.region_tospace 0) <- 60;
  p.Memsim.Attr.misses.(slot Memsim.Attr.region_tospace 0) <- 12;
  p.Memsim.Attr.alloc_misses.(slot Memsim.Attr.region_tospace 0) <- 9;
  p.Memsim.Attr.refs.(slot Memsim.Attr.region_static 0) <- 40;
  p.Memsim.Attr.misses.(slot Memsim.Attr.region_static 0) <- 3;
  p.Memsim.Attr.refs.(slot Memsim.Attr.region_fromspace 1) <- 20;
  p.Memsim.Attr.misses.(slot Memsim.Attr.region_fromspace 1) <- 5;
  p.Memsim.Attr.site_alloc_misses.(s_cons) <- 6;
  p.Memsim.Attr.site_alloc_writes.(s_cons) <- 30;
  p.Memsim.Attr.site_alloc_misses.(s_vec) <- 3;
  p.Memsim.Attr.site_alloc_writes.(s_vec) <- 10;
  p.Memsim.Attr.heat.(0) <- 15;
  p.Memsim.Attr.heat.(3) <- 5;
  p.Memsim.Attr.region_time.(Memsim.Attr.region_tospace) <- 12;
  Core.Profile.cook ~workload:"unit" ~cache:"64k/32b write-validate"
    ~events:100 table p

let test_cook () =
  let prof = cooked_fixture () in
  Alcotest.(check int) "one cell per region x phase"
    (Memsim.Attr.num_regions * 2)
    (List.length prof.Obs.Profile.cells);
  Alcotest.(check int) "total misses" 20 (Obs.Profile.total_misses prof);
  let tospace_mut =
    List.find
      (fun c ->
        c.Obs.Profile.region = "tospace" && c.Obs.Profile.phase = "mutator")
      prof.Obs.Profile.cells
  in
  Alcotest.(check int) "tospace mutator misses" 12
    tospace_mut.Obs.Profile.misses;
  Alcotest.(check int) "tospace mutator alloc misses" 9
    tospace_mut.Obs.Profile.alloc_misses;
  (* sites ranked by alloc misses, idle sites dropped *)
  (match prof.Obs.Profile.sites with
   | a :: b :: rest ->
     Alcotest.(check string) "top site" "prim:cons" a.Obs.Profile.site;
     Alcotest.(check int) "top site misses" 6 a.Obs.Profile.alloc_misses;
     Alcotest.(check string) "second site" "prim:make-vector"
       b.Obs.Profile.site;
     Alcotest.(check (list string)) "runtime site dropped" []
       (List.map (fun s -> s.Obs.Profile.site) rest)
   | _ -> Alcotest.fail "expected two active sites");
  Alcotest.(check int) "top_sites bounds" 1
    (List.length (Obs.Profile.top_sites ~n:1 prof));
  (* collapsed stacks carry workload;site weight lines *)
  let folded = Obs.Profile.collapsed_stacks prof in
  Alcotest.(check bool) "folded has cons line" true
    (let needle = "unit;prim:cons 6\n" in
     let rec search i =
       i + String.length needle <= String.length folded
       && (String.sub folded i (String.length needle) = needle
           || search (i + 1))
     in
     search 0);
  (* JSON export is well-formed and self-consistent *)
  let j = Obs.Profile.to_json prof in
  (match Obs.Json.of_string (Obs.Json.to_string j) with
   | Ok _ -> ()
   | Error msg -> Alcotest.fail msg);
  Alcotest.(check (option int)) "json total misses" (Some 20)
    (Option.bind (Obs.Json.member "total_misses" j) Obs.Json.to_int)

let test_overlay () =
  let prof = cooked_fixture () in
  let tl = Obs.Events.create () in
  Obs.Profile.overlay prof tl;
  let evs = Obs.Events.events tl in
  Alcotest.(check bool) "overlay emitted samples" true (List.length evs > 0);
  List.iter
    (fun e ->
      Alcotest.(check bool) "samples only" true
        (e.Obs.Events.kind = Obs.Events.Sample);
      Alcotest.(check string) "profile category" "profile" e.Obs.Events.cat;
      match e.Obs.Events.args with
      | [ ("misses", Obs.Events.I v) ] ->
        Alcotest.(check bool) "positive counts only" true (v > 0)
      | _ -> Alcotest.fail "unexpected overlay args")
    evs

(* End to end through the public pipeline: capture, replay, cook. *)
let test_profile_recording_pipeline () =
  let _r, recording, table, addr_limit =
    Core.Profile.capture
      ~gc:(Vscheme.Machine.Cheney { semispace_bytes = 256 * 1024 })
      ~scale:1 Workloads.Workload.nbody
  in
  let caches =
    Memsim.Sweep.grid ~cache_sizes:[ 64 * 1024 ] ~block_sizes:[ 32 ] ()
  in
  let profs =
    Core.Profile.profile_recording ~workload:"nbody" ~addr_limit ~caches table
      recording
  in
  let prof = List.hd profs in
  Alcotest.(check int) "events echoed" (Memsim.Recording.length recording)
    prof.Obs.Profile.events;
  Alcotest.(check string) "cache label" "64k/32b write-validate"
    prof.Obs.Profile.cache;
  (* cell sums match the profile totals the cells were cooked from *)
  let cell_misses =
    List.fold_left
      (fun acc c -> acc + c.Obs.Profile.misses)
      0 prof.Obs.Profile.cells
  in
  Alcotest.(check int) "cells sum to total" cell_misses
    (Obs.Profile.total_misses prof);
  Alcotest.(check bool) "heat grid populated" true
    (sum prof.Obs.Profile.heat.Obs.Profile.counts = cell_misses);
  Alcotest.(check bool) "some site attributed" true
    (prof.Obs.Profile.sites <> [])

let () =
  Alcotest.run "profile"
    [ ( "conservation",
        [ Alcotest.test_case "no-gc workloads" `Quick test_conservation_nogc;
          Alcotest.test_case "collected run" `Quick test_conservation_gc;
          Alcotest.test_case "parallel replay" `Quick
            test_conservation_parallel;
          Alcotest.test_case "sampled replay" `Quick
            test_conservation_sampled;
          Alcotest.test_case "attribution is meaningful" `Quick
            test_attribution_is_meaningful
        ] );
      ( "sidecar",
        [ Alcotest.test_case "save/load round-trip" `Quick
            test_attr_save_load;
          Alcotest.test_case "load rejects garbage" `Quick
            test_attr_load_rejects_garbage
        ] );
      ( "checker",
        [ Alcotest.test_case "clean sidecar" `Quick test_attr_check_clean;
          Alcotest.test_case "rules fire" `Quick test_attr_check_rules;
          Alcotest.test_case "per-rule finding cap" `Quick test_attr_check_cap
        ] );
      ( "render",
        [ Alcotest.test_case "heatmap" `Quick test_heatmap_render;
          Alcotest.test_case "heatmap rejects" `Quick
            test_heatmap_render_rejects
        ] );
      ( "pipeline",
        [ Alcotest.test_case "cook" `Quick test_cook;
          Alcotest.test_case "overlay" `Quick test_overlay;
          Alcotest.test_case "capture-replay-cook" `Quick
            test_profile_recording_pipeline
        ] )
    ]
