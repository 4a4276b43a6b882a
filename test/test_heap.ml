(* Heap tests: areas, allocation, typed objects, interning, tracing. *)

let mk ?(words = 65536) ?sink () =
  let sink = Option.value sink ~default:Memsim.Trace.null in
  let mem = Vscheme.Mem.create ~sink ~words in
  (mem, Vscheme.Heap.create ~mem ~static_words:1024 ~stack_words:512)

(* Does this word address lie in the dynamic area? *)
let is_dynamic h a =
  a >= Vscheme.Heap.dynamic_base h && a < Vscheme.Heap.dynamic_limit h

let test_areas () =
  let _, h = mk () in
  Alcotest.(check int) "stack base" 1024 (Vscheme.Heap.stack_base h);
  Alcotest.(check int) "stack limit" 1536 (Vscheme.Heap.stack_limit h);
  Alcotest.(check int) "dynamic base" 1536 (Vscheme.Heap.dynamic_base h);
  Alcotest.(check int) "dynamic limit" 65536 (Vscheme.Heap.dynamic_limit h);
  Alcotest.(check bool) "dynamic membership" true (is_dynamic h 2000);
  Alcotest.(check bool) "static not dynamic" false (is_dynamic h 100)

let test_pairs () =
  let _, h = mk () in
  let p = Vscheme.Heap.cons h (Vscheme.Value.fixnum 1) (Vscheme.Value.fixnum 2) in
  Alcotest.(check int) "car" 1 (Vscheme.Value.fixnum_val (Vscheme.Heap.car h p));
  Alcotest.(check int) "cdr" 2 (Vscheme.Value.fixnum_val (Vscheme.Heap.cdr h p));
  Vscheme.Heap.set_car h p (Vscheme.Value.fixnum 10);
  Vscheme.Heap.set_cdr h p Vscheme.Value.nil;
  Alcotest.(check int) "set-car" 10 (Vscheme.Value.fixnum_val (Vscheme.Heap.car h p));
  Alcotest.(check bool) "set-cdr" true (Vscheme.Heap.cdr h p = Vscheme.Value.nil);
  Alcotest.(check bool) "has_tag pair" true (Vscheme.Heap.has_tag h p Vscheme.Value.Pair);
  Alcotest.(check bool) "not vector" false (Vscheme.Heap.has_tag h p Vscheme.Value.Vector)

let test_type_errors () =
  let _, h = mk () in
  let check_err f =
    match f () with
    | exception Vscheme.Heap.Runtime_error _ -> ()
    | _ -> Alcotest.fail "expected Runtime_error"
  in
  check_err (fun () -> Vscheme.Heap.car h (Vscheme.Value.fixnum 3));
  check_err (fun () -> Vscheme.Heap.car h Vscheme.Value.nil);
  let v = Vscheme.Heap.make_vector h 3 Vscheme.Value.nil in
  check_err (fun () -> Vscheme.Heap.car h v);
  check_err (fun () -> Vscheme.Heap.vector_ref h v 3);
  check_err (fun () -> Vscheme.Heap.vector_ref h v (-1))

let test_vectors () =
  let _, h = mk () in
  let v = Vscheme.Heap.make_vector h 5 (Vscheme.Value.fixnum 9) in
  Alcotest.(check int) "length" 5 (Vscheme.Heap.vector_length h v);
  Alcotest.(check int) "fill" 9 (Vscheme.Value.fixnum_val (Vscheme.Heap.vector_ref h v 4));
  Vscheme.Heap.vector_set h v 2 (Vscheme.Value.fixnum (-1));
  Alcotest.(check int) "set" (-1) (Vscheme.Value.fixnum_val (Vscheme.Heap.vector_ref h v 2));
  let empty = Vscheme.Heap.make_vector h 0 Vscheme.Value.nil in
  Alcotest.(check int) "empty length" 0 (Vscheme.Heap.vector_length h empty)

let test_flonums () =
  let _, h = mk () in
  List.iter
    (fun f ->
      let v = Vscheme.Heap.flonum h f in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "flonum %g" f)
        f
        (Vscheme.Heap.flonum_val h v))
    [ 0.0; 1.5; -3.25; 1e300; -1e-300; Float.pi ]

let test_strings () =
  let _, h = mk () in
  List.iter
    (fun s ->
      let v = Vscheme.Heap.make_string h s in
      Alcotest.(check string) ("string " ^ s) s (Vscheme.Heap.string_val h v);
      Alcotest.(check int) "length" (String.length s) (Vscheme.Heap.string_length h v))
    [ ""; "a"; "ab"; "abc"; "abcd"; "abcde"; "hello, world" ];
  let v = Vscheme.Heap.make_string h "abcdef" in
  Alcotest.(check char) "string_ref" 'd' (Vscheme.Heap.string_ref h v 3)

let test_cells () =
  let _, h = mk () in
  let c = Vscheme.Heap.make_cell h (Vscheme.Value.fixnum 5) in
  Alcotest.(check int) "cell_ref" 5 (Vscheme.Value.fixnum_val (Vscheme.Heap.cell_ref h c));
  Vscheme.Heap.cell_set h c Vscheme.Value.true_v;
  Alcotest.(check bool) "cell_set" true (Vscheme.Heap.cell_ref h c = Vscheme.Value.true_v)

let test_symbols () =
  let _, h = mk () in
  let a1 = Vscheme.Heap.intern h "foo" in
  let a2 = Vscheme.Heap.intern h "foo" in
  let b = Vscheme.Heap.intern h "bar" in
  Alcotest.(check bool) "interning is idempotent" true (a1 = a2);
  Alcotest.(check bool) "distinct symbols differ" false (a1 = b);
  Alcotest.(check string) "symbol name" "foo" (Vscheme.Heap.symbol_name h a1);
  (* symbols live in the static area *)
  Alcotest.(check bool) "static" false
    (is_dynamic h (Vscheme.Value.pointer_val a1))

let test_static_allocation () =
  let _, h = mk () in
  let p =
    Vscheme.Heap.cons ~area:Vscheme.Heap.Static h Vscheme.Value.nil Vscheme.Value.nil
  in
  Alcotest.(check bool) "static pair" false
    (is_dynamic h (Vscheme.Value.pointer_val p));
  Alcotest.(check bool) "works like a pair" true
    (Vscheme.Heap.car h p = Vscheme.Value.nil)

let test_out_of_memory () =
  let _, h = mk ~words:4096 () in
  (* no collector installed: exhausting the dynamic area raises *)
  match
    let rec loop acc =
      loop (Vscheme.Heap.cons h acc acc)
    in
    loop Vscheme.Value.nil
  with
  | exception Vscheme.Heap.Out_of_memory _ -> ()
  | _ -> Alcotest.fail "expected Out_of_memory"

let test_static_exhaustion () =
  let _, h = mk () in
  match
    for _ = 1 to 10000 do
      ignore (Vscheme.Heap.make_string ~area:Vscheme.Heap.Static h "xxxxxxxxxxxx")
    done
  with
  | exception Vscheme.Heap.Out_of_memory _ -> ()
  | _ -> Alcotest.fail "expected Out_of_memory"

let test_tracing () =
  (* cons = 1 alloc-write header + 2 alloc-write fields; car = 1 read *)
  let events = ref [] in
  let sink =
    { Memsim.Trace.access = (fun addr kind _ -> events := (addr, kind) :: !events) }
  in
  let _, h = mk ~sink () in
  let p = Vscheme.Heap.cons h (Vscheme.Value.fixnum 1) (Vscheme.Value.fixnum 2) in
  let writes = List.length !events in
  Alcotest.(check int) "three alloc writes" 3 writes;
  List.iter
    (fun (_, k) ->
      Alcotest.(check bool) "all alloc writes" true (k = Memsim.Trace.Alloc_write))
    !events;
  ignore (Vscheme.Heap.car h p);
  Alcotest.(check int) "one more event" 4 (List.length !events);
  (match !events with
   | (_, k) :: _ -> Alcotest.(check bool) "car is a read" true (k = Memsim.Trace.Read)
   | [] -> Alcotest.fail "no events");
  (* byte addressing: the header's byte address is 4x its word address *)
  let header_byte_addr = List.nth (List.rev !events) 0 |> fst in
  Alcotest.(check int) "word-aligned byte address" 0 (header_byte_addr mod 4)

let test_charging () =
  let _, h = mk () in
  Vscheme.Heap.charge_mutator h 10;
  Vscheme.Heap.charge_mutator h 5;
  Vscheme.Heap.charge_collector h 7;
  Alcotest.(check int) "mutator insns" 15 (Vscheme.Heap.mutator_insns h);
  Alcotest.(check int) "collector insns" 7 (Vscheme.Heap.collector_insns h);
  Alcotest.(check int) "allocation counter" 0 (Vscheme.Heap.bytes_allocated h);
  ignore (Vscheme.Heap.cons h Vscheme.Value.nil Vscheme.Value.nil);
  Alcotest.(check int) "pair is three words" 12 (Vscheme.Heap.bytes_allocated h)

let test_printer () =
  let _, h = mk () in
  let show v = Vscheme.Printer.to_string h ~quote:true v in
  Alcotest.(check string) "fixnum" "42" (show (Vscheme.Value.fixnum 42));
  Alcotest.(check string) "nil" "()" (show Vscheme.Value.nil);
  let l =
    Vscheme.Heap.cons h (Vscheme.Value.fixnum 1)
      (Vscheme.Heap.cons h (Vscheme.Value.fixnum 2) Vscheme.Value.nil)
  in
  Alcotest.(check string) "list" "(1 2)" (show l);
  let d = Vscheme.Heap.cons h (Vscheme.Value.fixnum 1) (Vscheme.Value.fixnum 2) in
  Alcotest.(check string) "dotted" "(1 . 2)" (show d);
  let s = Vscheme.Heap.make_string h "hi\"x" in
  Alcotest.(check string) "write string" "\"hi\\\"x\"" (show s);
  Alcotest.(check string) "display string" "hi\"x"
    (Vscheme.Printer.to_string h ~quote:false s);
  let v = Vscheme.Heap.make_vector h 2 (Vscheme.Value.fixnum 0) in
  Alcotest.(check string) "vector" "#(0 0)" (show v);
  Alcotest.(check string) "symbol" "abc" (show (Vscheme.Heap.intern h "abc"));
  Alcotest.(check string) "char" "#\\a" (show (Vscheme.Value.char 'a'))

(* Property: heap roundtrip of arbitrary fixnum lists. *)
let list_roundtrip_prop =
  QCheck.Test.make ~count:200 ~name:"cons list roundtrip"
    QCheck.(list (int_range (-1000) 1000))
    (fun xs ->
      let _, h = mk ~words:(1 lsl 18) () in
      let l =
        List.fold_right
          (fun x acc -> Vscheme.Heap.cons h (Vscheme.Value.fixnum x) acc)
          xs Vscheme.Value.nil
      in
      let rec read v =
        if v = Vscheme.Value.nil then []
        else
          Vscheme.Value.fixnum_val (Vscheme.Heap.car h v) :: read (Vscheme.Heap.cdr h v)
      in
      read l = xs)

let string_roundtrip_prop =
  QCheck.Test.make ~count:200 ~name:"string roundtrip"
    QCheck.(string_of_size (QCheck.Gen.int_bound 64))
    (fun s ->
      let _, h = mk () in
      Vscheme.Heap.string_val h (Vscheme.Heap.make_string h s) = s)

let () =
  Alcotest.run "heap"
    [ ( "heap",
        [ Alcotest.test_case "areas" `Quick test_areas;
          Alcotest.test_case "pairs" `Quick test_pairs;
          Alcotest.test_case "type errors" `Quick test_type_errors;
          Alcotest.test_case "vectors" `Quick test_vectors;
          Alcotest.test_case "flonums" `Quick test_flonums;
          Alcotest.test_case "strings" `Quick test_strings;
          Alcotest.test_case "cells" `Quick test_cells;
          Alcotest.test_case "symbols" `Quick test_symbols;
          Alcotest.test_case "static allocation" `Quick test_static_allocation;
          Alcotest.test_case "out of memory" `Quick test_out_of_memory;
          Alcotest.test_case "static exhaustion" `Quick test_static_exhaustion;
          Alcotest.test_case "tracing" `Quick test_tracing;
          Alcotest.test_case "charging" `Quick test_charging;
          Alcotest.test_case "printer" `Quick test_printer
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest list_roundtrip_prop;
          QCheck_alcotest.to_alcotest string_roundtrip_prop
        ] )
    ]
