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
     formats, and `Runner.record' output always passes the checker;
     the v2 encoder writes what a spec encoder writes, and the v2
     loader accepts, rejects and locates exactly as the scanner does
     on hostile files. *)

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

(* Every layout the scanner reads, as [Recording.save] writes it. *)
let savers =
  [ Memsim.Recording.save ~format:Memsim.Recording.V2;
    Memsim.Recording.save ~format:Memsim.Recording.V3
  ]

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
        (fun save ->
          with_tmp ".trace" (fun path ->
              save recording path;
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
        savers)
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

let test_trailing_bytes_v2 () =
  let path = save_recording ~format:Memsim.Recording.V2 (sample_recording ()) in
  let b = read_bytes path in
  with_tmp ".trace" (fun bad ->
      write_bytes bad (Bytes.cat b (Bytes.make 3 '\000'));
      let scan = Check.Trace_file.scan bad in
      check_has "trace.trailing-bytes" scan.Check.Trace_file.findings);
  Sys.remove path

(* A file of the retired v1 format (16-byte header of magic and count,
   then 8 LE bytes per event) is named by its magic and not decoded:
   one trace.retired error at byte 0, and no format. *)
let test_retired_v1 () =
  with_tmp ".trace" (fun path ->
      let b = Bytes.create 24 in
      Bytes.set_int64_le b 0 0x5243545243414345L;
      Bytes.set_int64_le b 8 1L;
      Bytes.set_int64_le b 16 (Int64.of_int (64 lsl 3));
      write_bytes path b;
      let scan = Check.Trace_file.scan path in
      Alcotest.(check (list string)) "one trace.retired finding at byte 0"
        [ "trace.retired @ byte 0: format v1 is retired; re-record the trace \
           as v2 or v3" ]
        (List.map
           (fun f ->
             Printf.sprintf "%s @ %s: %s" f.Check.Finding.rule
               (match f.Check.Finding.where with
                | Check.Finding.Byte n -> Printf.sprintf "byte %d" n
                | _ -> "elsewhere")
               f.Check.Finding.message)
           scan.Check.Trace_file.findings);
      Alcotest.(check int) "an error" 1
        (List.length (Check.Finding.errors scan.Check.Trace_file.findings));
      Alcotest.(check bool) "no format" true
        (Option.is_none scan.Check.Trace_file.format);
      Alcotest.(check bool) "nothing decoded" true
        (Option.is_none scan.Check.Trace_file.recording))

(* A directory is not read: the finding says what the path is. *)
let test_directory () =
  let dir = Filename.temp_file "check" ".dir" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let scan = Check.Trace_file.scan dir in
  Sys.rmdir dir;
  Alcotest.(check (list string)) "one trace.io finding naming a directory"
    [ "trace.io: " ^ dir ^ ": is a directory" ]
    (List.map
       (fun f -> f.Check.Finding.rule ^ ": " ^ f.Check.Finding.message)
       scan.Check.Trace_file.findings)

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
        (fun save ->
          let path = tmp_file ".trace" in
          save r path;
          let scan = Check.Trace_file.scan path in
          Sys.remove path;
          Check.Finding.errors scan.Check.Trace_file.findings = []
          &&
          match scan.Check.Trace_file.recording with
          | Some decoded -> Memsim.Recording.equal r decoded
          | None -> false)
        savers)

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

(* --- v2 codec: a spec encoder and the scanner as the loader's oracle ------ *)

(* Format v2 as DESIGN §4e lays it out, written independently of
   [Recording.save]: a 17-byte header (magic, version byte 2, LE event
   count), then per event the zigzag-coded delta from the previous
   event's byte address.  The first byte holds bit 7 continuation,
   bits [6:3] the delta's low 4 bits and bits [2:0] the tag (kind,
   phase); the remaining delta bits follow as LEB128.  [pad] adds that
   many redundant zero groups (a legal, non-canonical varint), up to
   the 10-byte maximum. *)
let spec_v2_event b ~prev ?(pad = 0) (addr, tag) =
  let delta = addr - prev in
  let zz = if delta >= 0 then 2 * delta else (-2 * delta) - 1 in
  let rec groups r = if r = 0 then 0 else 1 + groups (r lsr 7) in
  let n = min 9 (groups (zz lsr 4) + pad) in
  let more last = if last then 0 else 0x80 in
  Buffer.add_char b
    (Char.chr (((zz land 15) lsl 3) lor tag lor more (n = 0)));
  for j = 0 to n - 1 do
    Buffer.add_char b
      (Char.chr (((zz lsr (4 + (7 * j))) land 0x7f) lor more (j = n - 1)))
  done

let spec_v2_header b count =
  Buffer.add_string b "ECACRTV2";
  Buffer.add_char b '\002';
  Buffer.add_int64_le b (Int64.of_int count)

(* A walk over byte addresses [0, top] whose deltas take every varint
   width: mostly short steps, random steps of random width, and jumps
   to both ends of the range.  Tags are valid (kind 0-2, either
   phase); [pad] is 0 unless [padded]. *)
let gen_walk ~top ~padded ~bytes st =
  let b = Buffer.create bytes in
  let prev = ref 0 in
  let events = ref [] in
  while Buffer.length b < bytes do
    let clamp a = max 0 (min top a) in
    let addr =
      match Random.State.int st 10 with
      | 0 -> 0
      | 1 -> top
      | 2 | 3 | 4 | 5 ->
        let width = Random.State.int st 61 in
        let step = Random.State.full_int st (1 lsl width) in
        clamp (if Random.State.bool st then !prev + step else !prev - step)
      | _ -> clamp (!prev + Random.State.int st 17 - 8)
    in
    let tag = (Random.State.int st 3 lsl 1) lor Random.State.int st 2 in
    let pad =
      if padded && Random.State.int st 4 = 0 then Random.State.int st 10 else 0
    in
    spec_v2_event b ~prev:!prev ~pad (addr, tag);
    events := (addr, tag, pad) :: !events;
    prev := addr
  done;
  Array.of_list (List.rev !events)

let print_events events = Printf.sprintf "%d events" (Array.length events)

let recording_of_tagged events =
  recording_of_events
    (List.map
       (fun (addr, tag, _) ->
         ( addr,
           Memsim.Chunk.kind_of_code (tag lsr 1),
           if tag land 1 = 0 then Memsim.Trace.Mutator
           else Memsim.Trace.Collector ))
       (Array.to_list events))

(* The round trip cannot tell an encoder from a decoder that are wrong
   the same way; the spec encoder can.  Traces span several of the
   encoder's 64 KB flushes and reach addresses 0, [max_int lsr 3] and
   2^60 - 1 (so deltas of +-(2^60 - 1): 10-byte events). *)
let prop_v2_encoder_spec =
  QCheck.Test.make ~name:"save ~format:V2 = spec encoder" ~count:8
    (QCheck.make ~print:print_events
       (fun st ->
         let events =
           gen_walk ~top:((1 lsl 60) - 1) ~padded:false ~bytes:(300 * 1024) st
         in
         let ends =
           [| (0, 0, 0); ((1 lsl 60) - 1, 2, 0); (0, 5, 0);
              (max_int lsr 3, 1, 0) |]
         in
         Array.append ends events))
    (fun events ->
      let spec = Buffer.create (400 * 1024) in
      spec_v2_header spec (Array.length events);
      ignore
        (Array.fold_left
           (fun prev (addr, tag, _) ->
             spec_v2_event spec ~prev (addr, tag);
             addr)
           0 events);
      let r = recording_of_tagged events in
      let path = save_recording ~format:Memsim.Recording.V2 r in
      let saved = Bytes.to_string (read_bytes path) in
      Sys.remove path;
      String.equal saved (Buffer.contents spec)
      && Memsim.Recording.saved_bytes r = Buffer.length spec)

(* One structure-aware corruption of a generated v2 file, at event [i]. *)
type mutation =
  | Kind3 of int                 (* both kind bits set in the tag *)
  | Flip_continuation of int * int  (* toggle bit 7 of the event's byte *)
  | Overflow of int              (* a varint that runs past 63 bits *)
  | Below_zero of int            (* a delta to a negative address *)
  | Past_top of int              (* a delta past [max_int lsr 3] *)
  | Trailing of string           (* bytes after the last event *)

let show_mutation = function
  | Kind3 i -> Printf.sprintf "kind 3 at event %d" i
  | Flip_continuation (i, k) ->
    Printf.sprintf "continuation flip at event %d byte %d" i k
  | Overflow i -> Printf.sprintf "overflow at event %d" i
  | Below_zero i -> Printf.sprintf "address below 0 at event %d" i
  | Past_top i -> Printf.sprintf "address past the top at event %d" i
  | Trailing s -> Printf.sprintf "%d trailing bytes" (String.length s)

(* The file, and the offset of every event's first byte. *)
let v2_bytes ?mutation events =
  let b = Buffer.create (256 * 1024) in
  spec_v2_header b (Array.length events);
  let starts = Array.make (Array.length events + 1) 0 in
  let top = max_int lsr 3 in
  ignore
    (Array.fold_left
       (fun (i, prev) (addr, tag, pad) ->
         starts.(i) <- Buffer.length b;
         (match mutation with
          | Some (Kind3 j) when j = i ->
            spec_v2_event b ~prev ~pad (addr, tag lor 6)
          | Some (Overflow j) when j = i ->
            Buffer.add_string b ("\x80" ^ String.make 10 '\xff' ^ "\x01")
          | Some (Below_zero j) when j = i ->
            spec_v2_event b ~prev (-1 - (addr land 0xff), tag)
          | Some (Past_top j) when j = i ->
            spec_v2_event b ~prev (top + 1 + (addr land 0xff), tag)
          | _ -> spec_v2_event b ~prev ~pad (addr, tag));
         (i + 1, addr))
       (0, 0) events);
  starts.(Array.length events) <- Buffer.length b;
  (match mutation with Some (Trailing s) -> Buffer.add_string b s | _ -> ());
  let bytes = Buffer.to_bytes b in
  (match mutation with
   | Some (Flip_continuation (i, k)) ->
     let at = starts.(i) + (k mod (starts.(i + 1) - starts.(i))) in
     Bytes.set bytes at (Char.chr (Char.code (Bytes.get bytes at) lxor 0x80))
   | _ -> ());
  (bytes, starts)

(* Where the loader's 64 KB window ends: it starts at the header's end
   and, at the first event boundary with at most 10 bytes left in it,
   slides to start at that boundary. *)
let window_ends starts =
  let window = 1 lsl 16 in
  let file_end = starts.(Array.length starts - 1) in
  let ends = ref [] in
  let e = ref (17 + window) in
  Array.iter
    (fun s ->
      if !e - s <= 10 && !e < file_end then begin
        ends := !e :: !ends;
        e := s + window
      end)
    starts;
  !ends

(* [Recording.load] succeeds iff [Trace_file.scan] reports no error,
   with the scan's events; otherwise it raises [Failure] at the byte
   the scan's first error locates (a [Byte] finding, or the "byte N:"
   an event finding's message starts with). *)
let load_agrees_with_scan what path =
  let scan = Check.Trace_file.scan path in
  match
    ( Memsim.Recording.load path,
      Check.Finding.errors scan.Check.Trace_file.findings )
  with
  | loaded, [] ->
    Option.fold ~none:false
      ~some:(Memsim.Recording.equal loaded)
      scan.Check.Trace_file.recording
    || QCheck.Test.fail_reportf "%s: loaded events differ from the scan's" what
  | _, f :: _ ->
    QCheck.Test.fail_reportf "%s: loaded, but the scan found %s" what
      f.Check.Finding.message
  | exception Failure msg -> (
    match Check.Finding.errors scan.Check.Trace_file.findings with
    | [] -> QCheck.Test.fail_reportf "%s: scan clean, load failed: %s" what msg
    | f :: _ ->
      let loader = Scanf.sscanf msg "Recording.load (v2, byte %d)" Fun.id in
      let scanner =
        match f.Check.Finding.where with
        | Check.Finding.Byte n -> n
        | _ -> Scanf.sscanf f.Check.Finding.message "byte %d:" Fun.id
      in
      loader = scanner
      || QCheck.Test.fail_reportf "%s: loader says %S, scan says byte %d (%s)"
           what msg scanner f.Check.Finding.message)

let gen_hostile_v2 st =
  let events =
    gen_walk ~top:(max_int lsr 3) ~padded:true
      ~bytes:(70_000 + Random.State.int st 130_000) st
  in
  let i = Random.State.int st (Array.length events) in
  let mutation =
    match Random.State.int st 6 with
    | 0 -> Kind3 i
    | 1 -> Flip_continuation (i, Random.State.int st 10)
    | 2 -> Overflow i
    | 3 -> Below_zero i
    | 4 -> Past_top i
    | _ ->
      Trailing
        (String.init
           (1 + Random.State.int st 12)
           (fun _ -> Char.chr (Random.State.int st 256)))
  in
  (events, mutation)

let prop_v2_load_vs_scan =
  QCheck.Test.make ~name:"v2 load = scan on hostile files" ~count:20
    (QCheck.make
       ~print:(fun (events, m) -> print_events events ^ ", " ^ show_mutation m)
       gen_hostile_v2)
    (fun (events, mutation) ->
      with_tmp ".trace" (fun path ->
          let agrees what bytes =
            write_bytes path bytes;
            load_agrees_with_scan what path
          in
          let clean, starts = v2_bytes events in
          let loads_clean =
            agrees "clean file" clean
            && Memsim.Recording.equal (Memsim.Recording.load path)
                 (recording_of_tagged events)
          in
          (* Around every refill: cut the file at each offset within 11
             bytes, and start an overlong varint (11 bytes read before
             it is rejected) at each event that starts within 11. *)
          let agrees_near e =
            List.for_all
              (fun cut ->
                cut >= Bytes.length clean
                || agrees (Printf.sprintf "cut at byte %d" cut)
                     (Bytes.sub clean 0 cut))
              (List.init 23 (fun d -> e - 11 + d))
            && List.for_all
                 (fun i ->
                   abs (starts.(i) - e) > 11
                   || agrees
                        (Printf.sprintf "overflow at byte %d" starts.(i))
                        (fst (v2_bytes ~mutation:(Overflow i) events)))
                 (List.init (Array.length events) Fun.id)
          in
          loads_clean
          && agrees (show_mutation mutation) (fst (v2_bytes ~mutation events))
          && List.for_all agrees_near (window_ends starts)))

(* --- v3: field-level mutations against both loads and the scanner ----- *)

(* One corruption of a saved v3 file, aimed at a field of the layout
   (DESIGN §4e) rather than at a random byte. *)
type v3_mutation =
  | Version of int           (* byte 8 set to a version other than 3 *)
  | Stride of int            (* byte 9 set to a stride other than 8 *)
  | Reserved of int * int    (* reserved byte 10 + i set nonzero *)
  | Count_by of int          (* the count word moved by a small delta *)
  | Count_bit63              (* bit 63 of the count word *)
  | Cut of int               (* the file cut to this many bytes *)
  | Trailing of string       (* bytes after the last word *)
  | Word_bit63 of int        (* bit 63 of event i's word *)
  | Word_kind3 of int        (* both kind bits of event i's word *)

let show_v3_mutation = function
  | Version v -> Printf.sprintf "version %d" v
  | Stride v -> Printf.sprintf "stride %d" v
  | Reserved (i, v) -> Printf.sprintf "reserved byte %d = %d" (10 + i) v
  | Count_by d -> Printf.sprintf "count %+d" d
  | Count_bit63 -> "count bit 63"
  | Cut n -> Printf.sprintf "cut at byte %d" n
  | Trailing s -> Printf.sprintf "%d trailing bytes" (String.length s)
  | Word_bit63 i -> Printf.sprintf "bit 63 of event %d" i
  | Word_kind3 i -> Printf.sprintf "kind 3 at event %d" i

let mutate_v3 b = function
  | Version v -> Bytes.set b 8 (Char.chr v); b
  | Stride v -> Bytes.set b 9 (Char.chr v); b
  | Reserved (i, v) -> Bytes.set b (10 + i) (Char.chr v); b
  | Count_by d ->
    Bytes.set_int64_le b 16 (Int64.add (Bytes.get_int64_le b 16) (Int64.of_int d));
    b
  | Count_bit63 -> Bytes.set b 23 (Char.chr (Char.code (Bytes.get b 23) lor 0x80)); b
  | Cut n -> Bytes.sub b 0 n
  | Trailing s -> Bytes.cat b (Bytes.of_string s)
  | Word_bit63 i ->
    let at = 24 + (8 * i) + 7 in
    Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lor 0x80));
    b
  | Word_kind3 i ->
    let at = 24 + (8 * i) in
    Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lor 6));
    b

(* Header cuts stop at 16 bytes: below that no loader names a format. *)
let gen_hostile_v3 =
  let open QCheck.Gen in
  let* events = QCheck.gen arbitrary_events in
  let n = List.length events in
  let header =
    [ map (fun v -> Version ((4 + v) land 0xff)) (int_bound 254);
      map (fun v -> Stride ((9 + v) land 0xff)) (int_bound 254);
      map2 (fun i v -> Reserved (i, 1 + v)) (int_bound 5) (int_bound 254);
      map (fun d -> Count_by (if d < 0 then d else d + 1)) (int_range (-3) 2);
      return Count_bit63;
      map (fun k -> Cut (16 + k)) (int_bound 7);
      map (fun s -> Trailing s) (string_size (int_range 1 16))
    ]
  in
  let payload =
    if n = 0 then []
    else
      [ map (fun k -> Cut (24 + k)) (int_bound ((8 * n) - 1));
        map (fun i -> Word_bit63 i) (int_bound (n - 1));
        map (fun i -> Word_kind3 i) (int_bound (n - 1))
      ]
  in
  let+ mutation = oneof (header @ payload) in
  (events, mutation)

(* Every outcome of a load on a hostile v3 file: the recording, or the
   located message; anything else raised fails the property. *)
let v3_outcome what load path =
  match load path with
  | loaded -> Ok loaded
  | exception Failure msg
    when Scanf.sscanf_opt msg "Recording.load (v3, byte %u): %n" (fun _ n ->
             n < String.length msg)
         = Some true ->
    Error msg
  | exception e ->
    QCheck.Test.fail_reportf "%s: raised %s" what (Printexc.to_string e)

(* Both loads raise nothing but located v3 failures.  The heap decoder
   ([load_unmapped]) refuses exactly the files the scanner finds an
   error in, and on a clean file both loads give back the original
   events.  Off the payload words the mapped load answers as the heap
   decoder does; on them it is not held to the audit (it cannot see
   bit 63, DESIGN §4h). *)
let prop_v3_load_vs_scan =
  QCheck.Test.make ~name:"v3 loads = scan on hostile files" ~count:500
    (QCheck.make
       ~print:(fun (events, m) ->
         Printf.sprintf "%d events, %s" (List.length events)
           (show_v3_mutation m))
       gen_hostile_v3)
    (fun (events, mutation) ->
      let r = recording_of_events events in
      let path = save_recording ~format:Memsim.Recording.V3 r in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          write_bytes path (mutate_v3 (read_bytes path) mutation);
          let what = show_v3_mutation mutation in
          let mapped = v3_outcome (what ^ ", load") Memsim.Recording.load path
          and decoded =
            v3_outcome (what ^ ", load_unmapped") Memsim.Recording.load_unmapped
              path
          in
          let scan = Check.Trace_file.scan path in
          let clean = Check.Finding.errors scan.Check.Trace_file.findings = [] in
          let on_payload =
            match mutation with Word_bit63 _ | Word_kind3 _ -> true | _ -> false
          in
          let ok =
            match (clean, mapped, decoded) with
            | true, Ok m, Ok d ->
              Memsim.Recording.equal r m
              && Memsim.Recording.equal r d
              || QCheck.Test.fail_reportf "%s: scan clean, loads differ" what
            | true, _, Error msg | true, Error msg, _ ->
              QCheck.Test.fail_reportf "%s: scan clean, load refused: %s" what
                msg
            | false, _, Ok _ ->
              QCheck.Test.fail_reportf
                "%s: load_unmapped accepted, the scan found %s" what
                (String.concat "; "
                   (rules (Check.Finding.errors scan.Check.Trace_file.findings)))
            | false, Ok _, Error _ ->
              on_payload
              || QCheck.Test.fail_reportf "%s: only load_unmapped refused" what
            | false, Error m, Error d ->
              String.equal m d
              || QCheck.Test.fail_reportf "%s: load says %S, load_unmapped %S"
                   what m d
          in
          List.iter
            (function Ok t -> Memsim.Recording.release t | Error _ -> ())
            [ mapped; decoded ];
          Memsim.Recording.release r;
          ok))

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
         Alcotest.test_case "trailing bytes v2" `Quick test_trailing_bytes_v2;
         Alcotest.test_case "bad version v3" `Quick test_bad_version_v3;
         Alcotest.test_case "bad stride v3" `Quick test_bad_stride_v3;
         Alcotest.test_case "truncated v3" `Quick test_truncated_v3;
         Alcotest.test_case "trailing bytes v3" `Quick test_trailing_bytes_v3;
         Alcotest.test_case "declared count v3" `Quick test_declared_count_v3;
         Alcotest.test_case "corrupt kind bits v3" `Quick test_corrupt_kind_v3;
         Alcotest.test_case "word width v3" `Quick test_word_width_v3;
         Alcotest.test_case "retired v1" `Quick test_retired_v1;
         Alcotest.test_case "directory" `Quick test_directory
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
         QCheck_alcotest.to_alcotest prop_record_passes_checker;
         QCheck_alcotest.to_alcotest prop_v2_encoder_spec;
         QCheck_alcotest.to_alcotest prop_v2_load_vs_scan;
         QCheck_alcotest.to_alcotest prop_v3_load_vs_scan
       ])
    ]
