(* Replacement-policy transition pins and policy_check self-tests.

   The model checker (tools/policy_check) verifies the engine against
   its executable spec exhaustively, but it would not notice the spec
   and the engine drifting *together*.  These tests pin the QLRU
   transition tables to hardcoded values from the documented
   semantics, so a change to either side has to touch a literal here.
   The checker itself is then exercised both positively (small
   configurations verify clean) and negatively (every seeded spec
   mutation is caught), and the checkpoint scanner is run against
   files the real writers produced. *)

module L = Memsim.Level
module Spec = Policy_check.Spec
module Model = Policy_check.Model

let block_bytes = 16

let mk policy ~ways =
  L.create
    (L.config ~policy ~size_bytes:(block_bytes * ways) ~block_bytes ~ways ())

let read lvl b =
  L.access lvl (b * block_bytes) Memsim.Trace.Read Memsim.Trace.Mutator

let ages lvl = (Spec.decode lvl ~set:0).Spec.v

let check_ages msg expected lvl =
  Alcotest.(check (array int)) msg expected (ages lvl)

let tags lvl ~ways = Array.init ways (fun w -> L.line_tag lvl ~set:0 ~way:w)

(* The way a miss landed in: the unique way whose tag changed. *)
let landed before after =
  let w = ref (-1) in
  Array.iteri
    (fun i t ->
      if t <> before.(i) then begin
        Alcotest.(check int) "only one way replaced" (-1) !w;
        w := i
      end)
    after;
  !w

(* --- QLRU transition tables ------------------------------------------- *)

(* Shared prefix: four fills into an empty 4-way set.  Fills take the
   lowest invalid way, so way i holds block 10+i afterwards. *)
let fill_four lvl = List.iter (read lvl) [ 10; 11; 12; 13 ]

(* R1U2: a fill ages every other way by one (saturating at 3) and sets
   the filled way to 1, so the fill order stays visible in the ages. *)
let test_qlru_r1u2_table () =
  let lvl = mk L.Qlru_h11_m1_r1_u2 ~ways:4 in
  read lvl 10;
  check_ages "after fill way0" [| 1; 1; 1; 1 |] lvl;
  read lvl 11;
  check_ages "after fill way1" [| 2; 1; 2; 2 |] lvl;
  read lvl 12;
  check_ages "after fill way2" [| 3; 2; 1; 3 |] lvl;
  read lvl 13;
  check_ages "after fill way3" [| 3; 3; 2; 1 |] lvl;
  (* H11 hit: age := age lsr 1 on the hit way only. *)
  read lvl 10;
  check_ages "hit halves the age" [| 1; 3; 2; 1 |] lvl;
  read lvl 10;
  check_ages "second hit reaches 0" [| 0; 3; 2; 1 |] lvl

(* R0U0: a fill touches only the filled way, so a fresh set ends up
   uniformly age 1 and the first miss must normalize (deficit 2). *)
let test_qlru_r0u0_table () =
  let first = mk L.Qlru_h11_m1_r0_u0 ~ways:4 in
  read first 10;
  check_ages "after fill way0" [| 1; 0; 0; 0 |] first;
  let lvl = mk L.Qlru_h11_m1_r0_u0 ~ways:4 in
  fill_four lvl;
  check_ages "uniform after four fills" [| 1; 1; 1; 1 |] lvl;
  read lvl 12;
  check_ages "hit halves the age" [| 1; 1; 0; 1 |] lvl

(* The pinned divergence: after the same four fills, a miss evicts way
   1 under R1U2 (last age-3 of [3;3;2;1], no deficit) but way 0 under
   R0U0 ([1;1;1;1] normalizes to all 3s and R0 takes the first). *)
let test_qlru_variant_divergence () =
  let miss_way policy expected_ages_after =
    let lvl = mk policy ~ways:4 in
    fill_four lvl;
    let before = tags lvl ~ways:4 in
    read lvl 14;
    check_ages
      (Printf.sprintf "ages after miss (%s)" (L.policy_label policy))
      expected_ages_after lvl;
    landed before (tags lvl ~ways:4)
  in
  (* R1U2 fill into way 1: others age, way 1 restarts at 1. *)
  Alcotest.(check int) "r1u2 evicts way 1" 1
    (miss_way L.Qlru_h11_m1_r1_u2 [| 3; 1; 3; 2 |]);
  (* R0U0 fill into way 0 after normalization: only way 0 changes. *)
  Alcotest.(check int) "r0u0 evicts way 0" 0
    (miss_way L.Qlru_h11_m1_r0_u0 [| 1; 3; 3; 3 |])

(* --- model-checker self-tests ------------------------------------------ *)

(* Small configurations verify clean: the exhaustive pass over every
   reachable metadata state plus the bounded sequence differential. *)
let test_checker_positive () =
  List.iter
    (fun policy ->
      List.iter
        (fun ways ->
          let r = Model.check ~budget:600 policy ~ways in
          Alcotest.(check (list string))
            (Printf.sprintf "%s/%d clean" (L.policy_label policy) ways)
            []
            (List.map
               (fun f -> f.Check.Finding.message)
               r.Model.findings))
        [ 2; 4 ])
    L.all_policies

(* Every seeded spec mutation must be caught on the policy it bends;
   a blind checker here would also miss the symmetric engine bug. *)
let test_checker_catches_mutations () =
  List.iter
    (fun (mutate, policy) ->
      let r = Model.check ~mutate ~budget:600 policy ~ways:4 in
      Alcotest.(check bool)
        (Printf.sprintf "%s caught on %s"
           (Spec.mutation_label mutate)
           (L.policy_label policy))
        true
        (Check.Finding.has_errors r.Model.findings))
    [ (Spec.Plru_flip, L.Tree_plru);
      (Spec.Lru_stuck, L.Lru);
      (Spec.Mru_nowrap, L.Mru);
      (Spec.Qlru_hit_reset, L.Qlru_h11_m1_r1_u2);
      (Spec.Victim_way0, L.Lru)
    ]

(* --- checkpoint scanner over real writer output ------------------------- *)

let temp_ckpt body =
  let path = Filename.temp_file "test_policy" ".ckpt" in
  let oc = open_out_bin path in
  output_bytes oc body;
  close_out oc;
  path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let n = in_channel_length ic in
      let b = Bytes.create n in
      really_input ic b 0 n;
      b)

let errors r =
  List.map
    (fun f -> f.Check.Finding.rule)
    (Check.Finding.errors r.Check.Ckpt_check.findings)

(* A grid checkpoint is a hierarchy checkpoint of one-level cells. *)
let test_ckpt_scan_grid () =
  let sweep =
    Memsim.Sweep.create
      [ L.config ~size_bytes:1024 ~block_bytes:64 ~ways:1 ();
        L.config ~size_bytes:2048 ~block_bytes:64 ~ways:1 ()
      ]
  in
  Array.iter
    (fun h ->
      for b = 0 to 40 do
        L.access (Memsim.Hier.level h 0) (b * 64) Memsim.Trace.Read
          Memsim.Trace.Mutator
      done)
    (Memsim.Sweep.hiers sweep);
  let path = Filename.temp_file "test_policy" ".ckpt" in
  Memsim.Sweep.save_hier_checkpoint (Memsim.Sweep.hiers sweep) ~events:41
    ~cursor:41 path;
  let r = Check.Ckpt_check.scan ~events:41 path in
  Alcotest.(check (list string)) "clean grid checkpoint" [] (errors r);
  Alcotest.(check bool) "kind hierarchy" true
    (r.Check.Ckpt_check.kind = Some Check.Ckpt_check.Hier);
  Alcotest.(check int) "both snapshots walked" 2
    r.Check.Ckpt_check.snapshots;
  (* Event-count cross-check against the recording being swept. *)
  let r = Check.Ckpt_check.scan ~events:99 path in
  Alcotest.(check (list string)) "event mismatch" [ "ckpt.events" ]
    (errors r);
  Sys.remove path

(* The retired direct-mapped grid format is still recognised, and
   reported once, located at its magic, without walking the bodies of
   a simulator that no longer exists. *)
let test_ckpt_scan_retired () =
  let body = Bytes.make 200 '\255' in
  Bytes.blit_string "SWPCKPT1" 0 body 0 8;
  let p = temp_ckpt body in
  let r = Check.Ckpt_check.scan p in
  Sys.remove p;
  Alcotest.(check bool) "kind grid" true
    (r.Check.Ckpt_check.kind = Some Check.Ckpt_check.Grid);
  match r.Check.Ckpt_check.findings with
  | [ f ] ->
    Alcotest.(check string) "rule" "ckpt.retired" f.Check.Finding.rule;
    Alcotest.(check bool) "located at byte 0" true
      (f.Check.Finding.where = Check.Finding.Byte 0);
    Alcotest.(check bool) "an error" true
      (Check.Finding.has_errors r.Check.Ckpt_check.findings)
  | fs ->
    Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_ckpt_scan_hier () =
  let h =
    Memsim.Hier.create ~fused:false
      (Memsim.Hier.config
         ~levels:
           [ L.config ~policy:L.Tree_plru ~size_bytes:1024 ~block_bytes:64
               ~ways:4 ();
             L.config ~policy:L.Qlru_h11_m1_r1_u2 ~size_bytes:4096
               ~block_bytes:64 ~ways:8 ()
           ]
         ())
  in
  for b = 0 to 40 do
    Memsim.Hier.access h (b * 64) Memsim.Trace.Read Memsim.Trace.Mutator
  done;
  let path = Filename.temp_file "test_policy" ".ckpt" in
  Memsim.Sweep.save_hier_checkpoint [| h |] ~events:41 ~cursor:20 path;
  let r = Check.Ckpt_check.scan path in
  Alcotest.(check (list string)) "clean hierarchy checkpoint" [] (errors r);
  Alcotest.(check bool) "kind hierarchy" true
    (r.Check.Ckpt_check.kind = Some Check.Ckpt_check.Hier);
  let body = read_file path in
  Sys.remove path;

  (* Corrupt the level-0 way count (file magic 8 + header 24 + hier
     magic 8 + nlevels 8 + level magic 8 + size 8 + block 8 = 72). *)
  let bad = Bytes.copy body in
  Bytes.set_int64_le bad 72 37L;
  let p = temp_ckpt bad in
  let r = Check.Ckpt_check.scan p in
  Sys.remove p;
  Alcotest.(check bool) "corrupt ways caught" true
    (List.mem "ckpt.geometry" (errors r));

  (* Truncation inside the first snapshot body. *)
  let p = temp_ckpt (Bytes.sub body 0 100) in
  let r = Check.Ckpt_check.scan p in
  Sys.remove p;
  Alcotest.(check bool) "truncation caught" true
    (List.mem "ckpt.truncated" (errors r));

  (* Cursor beyond the event count. *)
  let bad = Bytes.copy body in
  Bytes.set_int64_le bad 8 1000L;
  let p = temp_ckpt bad in
  let r = Check.Ckpt_check.scan p in
  Sys.remove p;
  Alcotest.(check bool) "bad cursor caught" true
    (List.mem "ckpt.header" (errors r));

  (* Line state no access could produce, located at the tag: level 0's
     tags start after the file and hierarchy headers (48) and the
     level's magic, geometry and counters (18 words), at 192; its 4
     sets of 4 ways are full. *)
  let tags = 192 in
  let state_at what corrupt at =
    let bad = Bytes.copy body in
    corrupt bad;
    let p = temp_ckpt bad in
    let r = Check.Ckpt_check.scan p in
    Sys.remove p;
    Alcotest.(check (list string)) what [ "ckpt.state" ] (errors r);
    Alcotest.(check bool)
      (what ^ " located at the tag") true
      (List.for_all
         (fun f -> f.Check.Finding.where = Check.Finding.Byte at)
         r.Check.Ckpt_check.findings)
  in
  (* block 1000 indexes set 0, filed in set 1's first way *)
  state_at "tag in a set it does not index"
    (fun b -> Bytes.set_int64_le b (tags + 32) 1000L)
    (tags + 32);
  state_at "one block in two ways of a set"
    (fun b -> Bytes.set_int64_le b (tags + 8) (Bytes.get_int64_le b tags))
    (tags + 8);

  (* Foreign magic. *)
  let bad = Bytes.copy body in
  Bytes.blit_string "NOTACKPT" 0 bad 0 8;
  let p = temp_ckpt bad in
  let r = Check.Ckpt_check.scan p in
  Sys.remove p;
  Alcotest.(check bool) "foreign magic caught" true
    (List.mem "ckpt.magic" (errors r))

let () =
  Alcotest.run "policy"
    [ ( "qlru-tables",
        [ Alcotest.test_case "r1u2 transitions" `Quick test_qlru_r1u2_table;
          Alcotest.test_case "r0u0 transitions" `Quick test_qlru_r0u0_table;
          Alcotest.test_case "variant divergence" `Quick
            test_qlru_variant_divergence
        ] );
      ( "model-checker",
        [ Alcotest.test_case "small configs verify clean" `Quick
            test_checker_positive;
          Alcotest.test_case "seeded mutations caught" `Quick
            test_checker_catches_mutations
        ] );
      ( "checkpoints",
        [ Alcotest.test_case "grid scan" `Quick test_ckpt_scan_grid;
          Alcotest.test_case "retired grid format" `Quick
            test_ckpt_scan_retired;
          Alcotest.test_case "hierarchy scan" `Quick test_ckpt_scan_hier
        ] )
    ]
