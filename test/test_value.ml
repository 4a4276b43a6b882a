(* Value-encoding tests: tagging roundtrips, distinctness of
   immediates, header packing. *)

let test_fixnums () =
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "fixnum %d" n)
        n
        (Vscheme.Value.fixnum_val (Vscheme.Value.fixnum n)))
    [ 0; 1; -1; 42; -42; 1000000; -1000000; Vscheme.Value.max_fixnum;
      Vscheme.Value.min_fixnum ];
  Alcotest.(check bool) "is_fixnum" true (Vscheme.Value.is_fixnum (Vscheme.Value.fixnum 7));
  Alcotest.(check bool) "fixnum not pointer" false
    (Vscheme.Value.is_pointer (Vscheme.Value.fixnum 7));
  Alcotest.(check bool) "fixnum not char" false
    (Vscheme.Value.is_char (Vscheme.Value.fixnum 7))

let test_pointers () =
  List.iter
    (fun a ->
      Alcotest.(check int)
        (Printf.sprintf "pointer %d" a)
        a
        (Vscheme.Value.pointer_val (Vscheme.Value.pointer a)))
    [ 0; 1; 4096; 16777216 ];
  Alcotest.(check bool) "is_pointer" true
    (Vscheme.Value.is_pointer (Vscheme.Value.pointer 100));
  Alcotest.(check bool) "pointer not fixnum" false
    (Vscheme.Value.is_fixnum (Vscheme.Value.pointer 100))

let test_immediates () =
  let imms =
    [ Vscheme.Value.false_v; Vscheme.Value.true_v; Vscheme.Value.nil;
      Vscheme.Value.unspecified; Vscheme.Value.eof; Vscheme.Value.undefined ]
  in
  (* all distinct *)
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i <> j then
            Alcotest.(check bool) "immediates distinct" false (a = b))
        imms)
    imms;
  List.iter
    (fun v ->
      Alcotest.(check bool) "immediate not fixnum" false (Vscheme.Value.is_fixnum v);
      Alcotest.(check bool) "immediate not pointer" false (Vscheme.Value.is_pointer v);
      Alcotest.(check bool) "immediate not char" false (Vscheme.Value.is_char v))
    imms

(* Only #f is false: the VM's conditional branch takes every other
   value, the empty list and zero included, as true. *)
let test_truthiness () =
  let m =
    Vscheme.Machine.create
      { Vscheme.Machine.default_config with heap_bytes = 8 * 1024 * 1024 }
  in
  List.iter
    (fun (src, expect) ->
      Alcotest.(check string) src expect
        (Vscheme.Machine.value_to_string m (Vscheme.Machine.eval_string m src)))
    [ ("(if #f 'yes 'no)", "no");
      ("(if '() 'yes 'no)", "yes");
      ("(if 0 'yes 'no)", "yes")
    ]

let test_chars () =
  List.iter
    (fun c ->
      Alcotest.(check char)
        (Printf.sprintf "char %C" c)
        c
        (Vscheme.Value.char_val (Vscheme.Value.char c)))
    [ 'a'; 'Z'; '0'; ' '; '\n'; '\000'; '\255' ];
  Alcotest.(check bool) "is_char" true (Vscheme.Value.is_char (Vscheme.Value.char 'q'))

let test_headers () =
  List.iter
    (fun tag ->
      List.iter
        (fun len ->
          let h = Vscheme.Value.header tag ~len in
          Alcotest.(check bool)
            "tag roundtrip" true
            (Vscheme.Value.header_tag h = tag);
          Alcotest.(check int) "len roundtrip" len (Vscheme.Value.header_len h))
        [ 0; 1; 2; 100; 65536 ])
    [ Vscheme.Value.Pair; Vscheme.Value.Vector; Vscheme.Value.Closure;
      Vscheme.Value.String; Vscheme.Value.Symbol; Vscheme.Value.Flonum;
      Vscheme.Value.Table; Vscheme.Value.Cell; Vscheme.Value.Forward;
      Vscheme.Value.Free ]

let test_object_words () =
  (* The footprint leaves room for a forwarding pointer. *)
  Alcotest.(check int) "empty vector" 2
    (Vscheme.Value.object_words (Vscheme.Value.header Vscheme.Value.Vector ~len:0));
  Alcotest.(check int) "pair" 3
    (Vscheme.Value.object_words (Vscheme.Value.header Vscheme.Value.Pair ~len:2));
  Alcotest.(check int) "big vector" 11
    (Vscheme.Value.object_words (Vscheme.Value.header Vscheme.Value.Vector ~len:10))

(* Property: the three tag classes are mutually exclusive. *)
let tag_classes_prop =
  QCheck.Test.make ~count:1000 ~name:"fixnum/pointer/char classes exclusive"
    QCheck.(int_range (-1000000) 1000000)
    (fun n ->
      let classify v =
        (if Vscheme.Value.is_fixnum v then 1 else 0)
        + (if Vscheme.Value.is_pointer v then 1 else 0)
        + if Vscheme.Value.is_char v then 1 else 0
      in
      classify (Vscheme.Value.fixnum n) = 1
      && classify (Vscheme.Value.pointer (abs n)) = 1
      && classify (Vscheme.Value.char (Char.chr (abs n mod 256))) = 1)

let () =
  Alcotest.run "value"
    [ ( "encoding",
        [ Alcotest.test_case "fixnums" `Quick test_fixnums;
          Alcotest.test_case "pointers" `Quick test_pointers;
          Alcotest.test_case "immediates" `Quick test_immediates;
          Alcotest.test_case "truthiness" `Quick test_truthiness;
          Alcotest.test_case "chars" `Quick test_chars;
          Alcotest.test_case "headers" `Quick test_headers;
          Alcotest.test_case "object words" `Quick test_object_words
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest tag_classes_prop ])
    ]
