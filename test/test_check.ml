(* The static checkers behind `repro check':

   - positives: every workload's recorded trace, in both on-disk
     formats, scans clean and round-trips through the scanner's
     decoder; a Cheney run passes the semispace discipline;
   - hostile negatives: each corruption (truncation, bad varint,
     out-of-range address, corrupt kind bits, trailing bytes, bad
     magic, count mismatch) yields its own located diagnostic;
   - synthetic stream violations: non-monotonic allocation, from-space
     references, count cross-check failures;
   - telemetry documents: span discipline over the event timeline;
   - properties: arbitrary event streams survive save/scan in both
     formats, and `Runner.record' output always passes the checker. *)

let tmp_file =
  let n = ref 0 in
  fun suffix ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "test_check_%d_%d%s" (Unix.getpid ()) !n suffix)

let with_tmp suffix f =
  let path = tmp_file suffix in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      let b = Bytes.create n in
      really_input ic b 0 n;
      b)

let write_bytes path b =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_bytes oc b)

let rules findings =
  List.map (fun f -> f.Check.Finding.rule) findings

let has_rule rule findings =
  List.exists (fun f -> String.equal f.Check.Finding.rule rule) findings

let check_has rule findings =
  Alcotest.(check bool)
    (Printf.sprintf "finding %s in [%s]" rule (String.concat "; " (rules findings)))
    true (has_rule rule findings)

let check_clean what findings =
  Alcotest.(check (list string))
    (what ^ " has no error findings") []
    (rules (Check.Finding.errors findings))

let recording_of_events events =
  let r = Memsim.Recording.create () in
  let out = Memsim.Recording.sink r in
  List.iter
    (fun (addr, kind, phase) -> out.Memsim.Trace.access addr kind phase)
    events;
  r

let save_recording ~format r =
  let path = tmp_file ".trace" in
  Memsim.Recording.save ~format r path;
  path

(* Geometry `repro record' defaults imply (No_gc, 48 MB dynamic). *)
let record_geometry ?gc () =
  let gc = Option.value gc ~default:Vscheme.Machine.No_gc in
  let cfg =
    { Vscheme.Machine.default_config with
      gc;
      heap_bytes = 48 * 1024 * 1024
    }
  in
  { Check.Stream_check.static_base = 0;
    stack_base = Vscheme.Machine.stack_base_bytes cfg;
    dynamic_base = Vscheme.Machine.dynamic_base_bytes cfg;
    dynamic_limit = Vscheme.Machine.dynamic_limit_bytes cfg;
    semispace_bytes =
      (match gc with
       | Vscheme.Machine.Cheney { semispace_bytes } -> Some semispace_bytes
       | _ -> None)
  }

(* --- Positives: every workload, both formats ----------------------------- *)

let test_workloads_scan_clean () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let _, recording = Core.Runner.record ~scale:1 w in
      List.iter
        (fun format ->
          with_tmp ".trace" (fun path ->
              Memsim.Recording.save ~format recording path;
              let scan = Check.Trace_file.scan path in
              check_clean (w.Workloads.Workload.name ^ " scan") scan.Check.Trace_file.findings;
              match scan.Check.Trace_file.recording with
              | None -> Alcotest.fail "scanner dropped the recording"
              | Some decoded ->
                Alcotest.(check bool)
                  (w.Workloads.Workload.name ^ " decode round-trip") true
                  (Memsim.Recording.equal recording decoded);
                let _, findings =
                  Check.Stream_check.check ~geometry:(record_geometry ())
                    ~file:path decoded
                in
                check_clean (w.Workloads.Workload.name ^ " stream") findings))
        [ Memsim.Recording.V1; Memsim.Recording.V2; Memsim.Recording.V3 ])
    Workloads.Workload.all

let test_cheney_scan_clean () =
  let gc = Vscheme.Machine.Cheney { semispace_bytes = 1024 * 1024 } in
  let w = Workloads.Workload.lred in
  let _, recording = Core.Runner.record ~gc ~scale:4 w in
  with_tmp ".trace" (fun path ->
      Memsim.Recording.save ~format:Memsim.Recording.V2 recording path;
      let scan = Check.Trace_file.scan path in
      check_clean "cheney scan" scan.Check.Trace_file.findings;
      let summary, findings =
        Check.Stream_check.check ~geometry:(record_geometry ~gc ())
          ~file:path recording
      in
      check_clean "cheney stream" findings;
      Alcotest.(check bool) "mutator events present" true
        (summary.Check.Stream_check.mutator_events > 0))

(* --- Hostile negatives --------------------------------------------------- *)

let sample_recording () =
  recording_of_events
    [ (0, Memsim.Trace.Read, Memsim.Trace.Mutator);
      (64, Memsim.Trace.Write, Memsim.Trace.Mutator);
      (128, Memsim.Trace.Alloc_write, Memsim.Trace.Mutator);
      (64, Memsim.Trace.Read, Memsim.Trace.Collector);
      (4096, Memsim.Trace.Read, Memsim.Trace.Mutator)
    ]

let test_truncated_v2 () =
  let path = save_recording ~format:Memsim.Recording.V2 (sample_recording ()) in
  let b = read_bytes path in
  with_tmp ".trace" (fun cut ->
      write_bytes cut (Bytes.sub b 0 (Bytes.length b - 2));
      let scan = Check.Trace_file.scan cut in
      check_has "trace.truncated" scan.Check.Trace_file.findings);
  Sys.remove path;
  (* A longer trace cut inside its last event (every event's 2^30
     address delta takes several varint bytes) still decodes to an
     exact, non-empty prefix of what was recorded. *)
  let full =
    recording_of_events
      (List.init 2_000 (fun i ->
           ((i land 1) lsl 30, Memsim.Trace.Read, Memsim.Trace.Mutator)))
  in
  let path = save_recording ~format:Memsim.Recording.V2 full in
  let b = read_bytes path in
  Sys.remove path;
  with_tmp ".trace" (fun cut ->
      write_bytes cut (Bytes.sub b 0 (Bytes.length b - 2));
      let scan = Check.Trace_file.scan cut in
      check_has "trace.truncated" scan.Check.Trace_file.findings;
      match scan.Check.Trace_file.recording with
      | None -> Alcotest.fail "scanner dropped the decoded prefix"
      | Some prefix ->
        let n = Memsim.Recording.length prefix in
        Alcotest.(check bool)
          (Printf.sprintf "non-empty proper prefix (%d events)" n)
          true
          (n > 0 && n < 2_000);
        for i = 0 to n - 1 do
          if Memsim.Recording.event prefix i <> Memsim.Recording.event full i
          then Alcotest.failf "prefix diverges at event %d" i
        done)

let test_truncated_header () =
  with_tmp ".trace" (fun path ->
      write_bytes path (Bytes.make 7 'x');
      let scan = Check.Trace_file.scan path in
      check_has "trace.truncated" scan.Check.Trace_file.findings)

let test_bad_magic () =
  with_tmp ".trace" (fun path ->
      write_bytes path (Bytes.make 32 '\xab');
      let scan = Check.Trace_file.scan path in
      check_has "trace.magic" scan.Check.Trace_file.findings)

(* A v2 file whose single event's varint never lands within 63 bits. *)
let test_bad_varint () =
  with_tmp ".trace" (fun path ->
      let b = Buffer.create 64 in
      Buffer.add_string b "ECACRTV2";
      Buffer.add_char b '\002';
      let count = Bytes.create 8 in
      Bytes.set_int64_le count 0 1L;
      Buffer.add_bytes b count;
      Buffer.add_char b '\x80';
      for _ = 1 to 12 do
        Buffer.add_char b '\xff'
      done;
      write_bytes path (Bytes.of_string (Buffer.contents b));
      let scan = Check.Trace_file.scan path in
      check_has "trace.varint" scan.Check.Trace_file.findings)

(* A v2 event whose negative delta drives the address below zero. *)
let test_address_range_v2 () =
  with_tmp ".trace" (fun path ->
      let b = Buffer.create 64 in
      Buffer.add_string b "ECACRTV2";
      Buffer.add_char b '\002';
      let count = Bytes.create 8 in
      Bytes.set_int64_le count 0 1L;
      Buffer.add_bytes b count;
      (* zigzag(-8) = 15: fits the first byte's 4 payload bits. *)
      Buffer.add_char b (Char.chr (15 lsl 3));
      write_bytes path (Bytes.of_string (Buffer.contents b));
      let scan = Check.Trace_file.scan path in
      check_has "trace.address-range" scan.Check.Trace_file.findings)

let test_corrupt_kind_v1 () =
  let path = save_recording ~format:Memsim.Recording.V1 (sample_recording ()) in
  let b = read_bytes path in
  (* Set both kind bits of the first event: code 3 is unassigned. *)
  Bytes.set b 16 (Char.chr (Char.code (Bytes.get b 16) lor 6));
  with_tmp ".trace" (fun bad ->
      write_bytes bad b;
      let scan = Check.Trace_file.scan bad in
      check_has "trace.kind-bits" scan.Check.Trace_file.findings);
  Sys.remove path

let test_trailing_bytes_v2 () =
  let path = save_recording ~format:Memsim.Recording.V2 (sample_recording ()) in
  let b = read_bytes path in
  with_tmp ".trace" (fun bad ->
      write_bytes bad (Bytes.cat b (Bytes.make 3 '\000'));
      let scan = Check.Trace_file.scan bad in
      check_has "trace.trailing-bytes" scan.Check.Trace_file.findings);
  Sys.remove path

(* --- v3 negatives: every header field and both word-level rules ---------- *)

(* Patch one byte of a freshly saved v3 file and expect one rule. *)
let patch_v3 rule patch =
  let path = save_recording ~format:Memsim.Recording.V3 (sample_recording ()) in
  let b = read_bytes path in
  Sys.remove path;
  with_tmp ".trace" (fun bad ->
      write_bytes bad (patch b);
      let scan = Check.Trace_file.scan bad in
      check_has rule scan.Check.Trace_file.findings)

let test_bad_version_v3 () =
  patch_v3 "trace.version" (fun b -> Bytes.set b 8 '\004'; b)

let test_bad_stride_v3 () =
  patch_v3 "trace.stride" (fun b -> Bytes.set b 9 '\016'; b)

let test_truncated_v3 () =
  (* Cutting three bytes leaves a partial trailing word. *)
  patch_v3 "trace.truncated" (fun b -> Bytes.sub b 0 (Bytes.length b - 3))

let test_trailing_bytes_v3 () =
  (* One whole word past the declared count. *)
  patch_v3 "trace.trailing-bytes" (fun b -> Bytes.cat b (Bytes.make 8 '\000'))

let test_declared_count_v3 () =
  patch_v3 "trace.declared-count" (fun b -> Bytes.set_int64_le b 16 7L; b)

let test_corrupt_kind_v3 () =
  (* Both kind bits of the first event: code 3 is unassigned. *)
  patch_v3 "trace.kind-bits" (fun b ->
      Bytes.set b 24 (Char.chr (Char.code (Bytes.get b 24) lor 6));
      b)

let test_word_width_v3 () =
  (* Bit 63 of the first event cannot fit a 63-bit native int — the
     one check the mmap load path cannot perform itself. *)
  patch_v3 "trace.word-width" (fun b ->
      Bytes.set b 31 (Char.chr (Char.code (Bytes.get b 31) lor 0x80));
      b)

let test_declared_count_v1 () =
  let path = save_recording ~format:Memsim.Recording.V1 (sample_recording ()) in
  let b = read_bytes path in
  Bytes.set_int64_le b 8 7L;
  with_tmp ".trace" (fun bad ->
      write_bytes bad b;
      let scan = Check.Trace_file.scan bad in
      check_has "trace.declared-count" scan.Check.Trace_file.findings);
  Sys.remove path

(* --- Synthetic stream violations ----------------------------------------- *)

let synthetic_geometry ?semispace_bytes () =
  { Check.Stream_check.static_base = 0;
    stack_base = 0x1000;
    dynamic_base = 0x2000;
    dynamic_limit = 0x2000 + (2 * 0x1000);
    semispace_bytes
  }

let test_alloc_monotonic_violation () =
  (* Frontier reaches 0x2800; a later alloc-write lands at 0x2400,
     which this run never initialized. *)
  let r =
    recording_of_events
      [ (0x2000, Memsim.Trace.Alloc_write, Memsim.Trace.Mutator);
        (0x2800, Memsim.Trace.Alloc_write, Memsim.Trace.Mutator);
        (0x2400, Memsim.Trace.Alloc_write, Memsim.Trace.Mutator)
      ]
  in
  let _, findings =
    Check.Stream_check.check ~geometry:(synthetic_geometry ()) ~file:"synthetic"
      r
  in
  check_has "stream.alloc-monotonic" findings

let test_alloc_reinit_allowed () =
  (* Re-initializing a word the run already alloc-wrote is the VM's
     closure-capture pattern and must pass. *)
  let r =
    recording_of_events
      [ (0x2000, Memsim.Trace.Alloc_write, Memsim.Trace.Mutator);
        (0x2004, Memsim.Trace.Alloc_write, Memsim.Trace.Mutator);
        (0x2008, Memsim.Trace.Alloc_write, Memsim.Trace.Mutator);
        (0x2004, Memsim.Trace.Alloc_write, Memsim.Trace.Mutator)
      ]
  in
  let _, findings =
    Check.Stream_check.check ~geometry:(synthetic_geometry ()) ~file:"synthetic"
      r
  in
  check_clean "re-initialization" findings

let test_semispace_violation () =
  (* One collection flips to space 1 (0x3000+); a mutator read back in
     space 0 afterwards breaks the Cheney discipline. *)
  let r =
    recording_of_events
      [ (0x2000, Memsim.Trace.Alloc_write, Memsim.Trace.Mutator);
        (0x2000, Memsim.Trace.Read, Memsim.Trace.Collector);
        (0x3000, Memsim.Trace.Read, Memsim.Trace.Mutator);
        (0x2000, Memsim.Trace.Read, Memsim.Trace.Mutator)
      ]
  in
  let _, findings =
    Check.Stream_check.check
      ~geometry:(synthetic_geometry ~semispace_bytes:0x1000 ()) ~file:"synthetic"
      r
  in
  check_has "stream.semispace" findings

let test_address_beyond_limit () =
  let r =
    recording_of_events [ (0x8000, Memsim.Trace.Read, Memsim.Trace.Mutator) ]
  in
  let _, findings =
    Check.Stream_check.check ~geometry:(synthetic_geometry ()) ~file:"synthetic"
      r
  in
  check_has "stream.address-range" findings

let test_count_mismatch () =
  let r =
    recording_of_events
      [ (0x100, Memsim.Trace.Read, Memsim.Trace.Mutator);
        (0x104, Memsim.Trace.Read, Memsim.Trace.Collector)
      ]
  in
  let expect =
    { Check.Stream_check.mutator_refs = Some 5;
      collector_refs = Some 1;
      collections = None
    }
  in
  let _, findings = Check.Stream_check.check ~expect ~file:"synthetic" r in
  check_has "stream.count-mutator" findings;
  Alcotest.(check bool) "collector count matches" false
    (has_rule "stream.count-collector" findings)

(* --- Telemetry documents ------------------------------------------------- *)

let doc_of_events events =
  Obs.Json.Obj
    [ ("meta", Obs.Json.Obj [ ("label", Obs.Json.Str "test") ]);
      ("metrics", Obs.Json.Obj []);
      ("events", Obs.Json.List (List.map Obs.Events.event_to_json events))
    ]

let event ?(ts = 0) ?(cat = "phase") kind name =
  { Obs.Events.ts; name; cat; kind; args = [] }

let write_doc path doc =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Obs.Json.to_pretty_string doc))

let test_doc_balanced () =
  with_tmp ".json" (fun path ->
      write_doc path
        (doc_of_events
           [ event ~ts:1 Obs.Events.Begin "phase.load";
             event ~ts:2 Obs.Events.End "phase.load";
             event ~ts:3 Obs.Events.Begin "phase.run";
             event ~ts:4 ~cat:"gc" Obs.Events.Begin "gc.collection";
             event ~ts:5 ~cat:"gc" Obs.Events.End "gc.collection";
             event ~ts:6 Obs.Events.End "phase.run"
           ]);
      let _, findings = Check.Doc_check.check_file ~file:path in
      check_clean "balanced document" findings)

let test_doc_unbalanced () =
  with_tmp ".json" (fun path ->
      write_doc path
        (doc_of_events
           [ event ~ts:1 Obs.Events.Begin "phase.load";
             event ~ts:2 Obs.Events.Begin "phase.run";
             event ~ts:3 Obs.Events.End "phase.load"
           ]);
      let _, findings = Check.Doc_check.check_file ~file:path in
      check_has "doc.phase-nesting" findings)

let test_doc_expectations () =
  with_tmp ".json" (fun path ->
      let counter v =
        Obs.Json.Obj
          [ ("type", Obs.Json.Str "counter"); ("value", Obs.Json.Int v) ]
      in
      write_doc path
        (Obs.Json.Obj
           [ ("meta", Obs.Json.Obj []);
             ("metrics",
              Obs.Json.Obj
                [ ("run.mutator_refs", counter 123);
                  ("run.collector_refs", counter 45);
                  ("run.collections", counter 6)
                ]);
             ("events", Obs.Json.List [])
           ]);
      let e, findings = Check.Doc_check.check_file ~file:path in
      check_clean "expectations document" findings;
      Alcotest.(check (option int)) "mutator" (Some 123)
        e.Check.Stream_check.mutator_refs;
      Alcotest.(check (option int)) "collector" (Some 45)
        e.Check.Stream_check.collector_refs;
      Alcotest.(check (option int)) "collections" (Some 6)
        e.Check.Stream_check.collections)

(* --- Properties ----------------------------------------------------------- *)

let arbitrary_events =
  let open QCheck in
  let event =
    map
      (fun (addr_words, kind_sel, collector) ->
        let kind =
          match kind_sel mod 3 with
          | 0 -> Memsim.Trace.Read
          | 1 -> Memsim.Trace.Write
          | _ -> Memsim.Trace.Alloc_write
        in
        let phase =
          if collector then Memsim.Trace.Collector else Memsim.Trace.Mutator
        in
        (addr_words * 4, kind, phase))
      (triple (int_bound 0xffffff) (int_bound 2) bool)
  in
  list_of_size Gen.(0 -- 300) event

let prop_save_scan_roundtrip =
  QCheck.Test.make ~name:"save/scan round-trips both formats" ~count:60
    arbitrary_events (fun events ->
      let r = recording_of_events events in
      List.for_all
        (fun format ->
          let path = save_recording ~format r in
          let scan = Check.Trace_file.scan path in
          Sys.remove path;
          Check.Finding.errors scan.Check.Trace_file.findings = []
          &&
          match scan.Check.Trace_file.recording with
          | Some decoded -> Memsim.Recording.equal r decoded
          | None -> false)
        [ Memsim.Recording.V1; Memsim.Recording.V2; Memsim.Recording.V3 ])

(* The packed stream survives a change of container: v2's
   delta+varint encoding and v3's fixed-stride mmap layout agree on
   every arbitrary event stream, in both directions. *)
let prop_v2_v3_roundtrip =
  QCheck.Test.make ~name:"v2 <-> v3 round trip" ~count:60 arbitrary_events
    (fun events ->
      let r = recording_of_events events in
      let load_via format r =
        let path = save_recording ~format r in
        let loaded = Memsim.Recording.load path in
        Sys.remove path;
        loaded
      in
      let as_v3 = load_via Memsim.Recording.V3 r in
      let back = load_via Memsim.Recording.V2 as_v3 in
      let again = load_via Memsim.Recording.V3 back in
      Memsim.Recording.equal r as_v3
      && Memsim.Recording.equal r back
      && Memsim.Recording.equal r again)

let prop_record_passes_checker =
  QCheck.Test.make ~name:"Runner.record output passes the checker" ~count:4
    QCheck.(int_bound (List.length Workloads.Workload.all - 1))
    (fun i ->
      let w = List.nth Workloads.Workload.all i in
      let _, recording = Core.Runner.record ~scale:1 w in
      let path = save_recording ~format:Memsim.Recording.V2 recording in
      let scan = Check.Trace_file.scan path in
      Sys.remove path;
      Check.Finding.errors scan.Check.Trace_file.findings = []
      &&
      match scan.Check.Trace_file.recording with
      | None -> false
      | Some decoded ->
        let _, findings =
          Check.Stream_check.check ~geometry:(record_geometry ()) ~file:path
            decoded
        in
        Check.Finding.errors findings = [])

let () =
  Alcotest.run "check"
    [ ("workloads",
       [ Alcotest.test_case "all workloads, both formats" `Slow
           test_workloads_scan_clean;
         Alcotest.test_case "cheney run passes semispace discipline" `Slow
           test_cheney_scan_clean
       ]);
      ("hostile",
       [ Alcotest.test_case "truncated v2" `Quick test_truncated_v2;
         Alcotest.test_case "truncated header" `Quick test_truncated_header;
         Alcotest.test_case "bad magic" `Quick test_bad_magic;
         Alcotest.test_case "bad varint" `Quick test_bad_varint;
         Alcotest.test_case "address range v2" `Quick test_address_range_v2;
         Alcotest.test_case "corrupt kind bits v1" `Quick test_corrupt_kind_v1;
         Alcotest.test_case "trailing bytes v2" `Quick test_trailing_bytes_v2;
         Alcotest.test_case "declared count v1" `Quick test_declared_count_v1;
         Alcotest.test_case "bad version v3" `Quick test_bad_version_v3;
         Alcotest.test_case "bad stride v3" `Quick test_bad_stride_v3;
         Alcotest.test_case "truncated v3" `Quick test_truncated_v3;
         Alcotest.test_case "trailing bytes v3" `Quick test_trailing_bytes_v3;
         Alcotest.test_case "declared count v3" `Quick test_declared_count_v3;
         Alcotest.test_case "corrupt kind bits v3" `Quick test_corrupt_kind_v3;
         Alcotest.test_case "word width v3" `Quick test_word_width_v3
       ]);
      ("stream",
       [ Alcotest.test_case "alloc monotonicity violation" `Quick
           test_alloc_monotonic_violation;
         Alcotest.test_case "re-initialization allowed" `Quick
           test_alloc_reinit_allowed;
         Alcotest.test_case "semispace violation" `Quick
           test_semispace_violation;
         Alcotest.test_case "address beyond limit" `Quick
           test_address_beyond_limit;
         Alcotest.test_case "count mismatch" `Quick test_count_mismatch
       ]);
      ("doc",
       [ Alcotest.test_case "balanced spans" `Quick test_doc_balanced;
         Alcotest.test_case "unbalanced spans" `Quick test_doc_unbalanced;
         Alcotest.test_case "expectations extracted" `Quick
           test_doc_expectations
       ]);
      ("properties",
       [ QCheck_alcotest.to_alcotest prop_save_scan_roundtrip;
         QCheck_alcotest.to_alcotest prop_v2_v3_roundtrip;
         QCheck_alcotest.to_alcotest prop_record_passes_checker
       ])
    ]
