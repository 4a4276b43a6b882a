(* Reader tests: lexer, parser, printer, and a print/parse roundtrip
   property. *)

let datum =
  Alcotest.testable
    (fun ppf d -> Format.pp_print_string ppf (Sexp.Datum.to_string d))
    Sexp.Datum.equal

let parse = Sexp.Parser.parse_one
let parse_all = Sexp.Parser.parse_all

let check_parse msg src expected =
  Alcotest.check datum msg expected (parse src)

let test_atoms () =
  check_parse "int" "42" (Sexp.Datum.Int 42);
  check_parse "negative int" "-17" (Sexp.Datum.Int (-17));
  check_parse "explicit positive" "+5" (Sexp.Datum.Int 5);
  check_parse "real" "3.25" (Sexp.Datum.Real 3.25);
  check_parse "real exponent" "1e3" (Sexp.Datum.Real 1000.0);
  check_parse "negative real" "-0.5" (Sexp.Datum.Real (-0.5));
  check_parse "symbol" "foo" (Sexp.Datum.Sym "foo");
  check_parse "symbol with dashes" "list->vector" (Sexp.Datum.Sym "list->vector");
  check_parse "case folding" "FooBar" (Sexp.Datum.Sym "foobar");
  check_parse "plus symbol" "+" (Sexp.Datum.Sym "+");
  check_parse "minus symbol" "-" (Sexp.Datum.Sym "-");
  check_parse "ellipsis symbol" "..." (Sexp.Datum.Sym "...");
  check_parse "true" "#t" (Sexp.Datum.Bool true);
  check_parse "false" "#f" (Sexp.Datum.Bool false)

let test_chars_strings () =
  check_parse "char" "#\\a" (Sexp.Datum.Char 'a');
  check_parse "char space" "#\\space" (Sexp.Datum.Char ' ');
  check_parse "char newline" "#\\newline" (Sexp.Datum.Char '\n');
  check_parse "char paren" "#\\(" (Sexp.Datum.Char '(');
  check_parse "string" {|"hello"|} (Sexp.Datum.Str "hello");
  check_parse "string escapes" {|"a\nb\\c\"d"|} (Sexp.Datum.Str "a\nb\\c\"d");
  check_parse "empty string" {|""|} (Sexp.Datum.Str "")

let test_lists () =
  check_parse "empty" "()" Sexp.Datum.Nil;
  check_parse "flat"
    "(1 2 3)"
    (Sexp.Datum.list [ Sexp.Datum.Int 1; Sexp.Datum.Int 2; Sexp.Datum.Int 3 ]);
  check_parse "nested"
    "((a) (b c))"
    (Sexp.Datum.list
       [ Sexp.Datum.list [ Sexp.Datum.sym "a" ];
         Sexp.Datum.list [ Sexp.Datum.sym "b"; Sexp.Datum.sym "c" ]
       ]);
  check_parse "dotted"
    "(a . b)"
    (Sexp.Datum.Cons (Sexp.Datum.sym "a", Sexp.Datum.sym "b"));
  check_parse "dotted list"
    "(a b . c)"
    (Sexp.Datum.Cons
       (Sexp.Datum.sym "a", Sexp.Datum.Cons (Sexp.Datum.sym "b", Sexp.Datum.sym "c")));
  check_parse "brackets" "[a b]"
    (Sexp.Datum.list [ Sexp.Datum.sym "a"; Sexp.Datum.sym "b" ])

let test_vectors () =
  check_parse "vector" "#(1 2)"
    (Sexp.Datum.Vec [| Sexp.Datum.Int 1; Sexp.Datum.Int 2 |]);
  check_parse "empty vector" "#()" (Sexp.Datum.Vec [||]);
  check_parse "nested vector" "#(#(a))"
    (Sexp.Datum.Vec [| Sexp.Datum.Vec [| Sexp.Datum.sym "a" |] |])

let test_quotes () =
  check_parse "quote" "'x"
    (Sexp.Datum.list [ Sexp.Datum.sym "quote"; Sexp.Datum.sym "x" ]);
  check_parse "quasiquote" "`x"
    (Sexp.Datum.list [ Sexp.Datum.sym "quasiquote"; Sexp.Datum.sym "x" ]);
  check_parse "unquote" ",x"
    (Sexp.Datum.list [ Sexp.Datum.sym "unquote"; Sexp.Datum.sym "x" ]);
  check_parse "unquote-splicing" ",@x"
    (Sexp.Datum.list [ Sexp.Datum.sym "unquote-splicing"; Sexp.Datum.sym "x" ]);
  check_parse "quoted list" "'(1 2)"
    (Sexp.Datum.list
       [ Sexp.Datum.sym "quote";
         Sexp.Datum.list [ Sexp.Datum.Int 1; Sexp.Datum.Int 2 ]
       ])

let test_comments () =
  check_parse "line comment" "; hi\n42" (Sexp.Datum.Int 42);
  check_parse "block comment" "#| bye |# 7" (Sexp.Datum.Int 7);
  check_parse "nested block comment" "#| a #| b |# c |# 7" (Sexp.Datum.Int 7);
  Alcotest.(check int)
    "comment between data" 2
    (List.length (parse_all "1 ; mid\n2"))

let test_parse_all () =
  Alcotest.(check int) "three data" 3 (List.length (parse_all "1 (2) three"));
  Alcotest.(check int) "empty input" 0 (List.length (parse_all "  ; only\n"))

let expect_error f =
  match f () with
  | exception Sexp.Parser.Error _ -> ()
  | exception Sexp.Lexer.Error _ -> ()
  | _ -> Alcotest.fail "expected a parse error"

let test_errors () =
  expect_error (fun () -> parse "(");
  expect_error (fun () -> parse ")");
  expect_error (fun () -> parse "(a . )");
  expect_error (fun () -> parse "(. a)");
  expect_error (fun () -> parse "(a . b c)");
  expect_error (fun () -> parse "#(a . b)");
  expect_error (fun () -> parse "\"unterminated");
  expect_error (fun () -> parse "#q");
  expect_error (fun () -> parse "1 2");
  expect_error (fun () -> parse "#| unclosed");
  expect_error (fun () -> parse "")

let test_positions () =
  (try
     ignore (parse_all "(ok)\n(bad . )");
     Alcotest.fail "expected error"
   with
   | Sexp.Parser.Error (_, pos) ->
     Alcotest.(check int) "line" 2 pos.Sexp.Lexer.line)

(* Property: printing and re-reading preserves structure. *)
let datum_gen =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n = 0 then
            oneof
              [ return Sexp.Datum.Nil;
                map (fun b -> Sexp.Datum.Bool b) bool;
                map (fun i -> Sexp.Datum.Int i) (int_range (-1000000) 1000000);
                map
                  (fun f -> Sexp.Datum.Real (Float.of_int f /. 16.0))
                  (int_range (-10000) 10000);
                map
                  (fun c -> Sexp.Datum.Char c)
                  (oneof [ char_range 'a' 'z'; return ' '; return '\n' ]);
                map (fun s -> Sexp.Datum.Str s) (string_size ~gen:printable (int_bound 12));
                map
                  (fun s -> Sexp.Datum.Sym ("s" ^ string_of_int s))
                  (int_bound 40)
              ]
          else
            oneof
              [ self 0;
                map2
                  (fun a b -> Sexp.Datum.Cons (a, b))
                  (self (n / 2)) (self (n / 2));
                map
                  (fun xs -> Sexp.Datum.Vec (Array.of_list xs))
                  (list_size (int_bound 4) (self (n / 3)))
              ])
        n)

let roundtrip_prop =
  QCheck.Test.make ~count:500 ~name:"print/parse roundtrip"
    (QCheck.make datum_gen ~print:Sexp.Datum.to_string)
    (fun d ->
      let printed = Sexp.Datum.to_string d in
      Sexp.Datum.equal d (Sexp.Parser.parse_one printed))

let () =
  Alcotest.run "sexp"
    [ ( "lexer+parser",
        [ Alcotest.test_case "atoms" `Quick test_atoms;
          Alcotest.test_case "chars and strings" `Quick test_chars_strings;
          Alcotest.test_case "lists" `Quick test_lists;
          Alcotest.test_case "vectors" `Quick test_vectors;
          Alcotest.test_case "quotes" `Quick test_quotes;
          Alcotest.test_case "comments" `Quick test_comments;
          Alcotest.test_case "parse_all" `Quick test_parse_all;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "positions" `Quick test_positions
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest roundtrip_prop ])
    ]
