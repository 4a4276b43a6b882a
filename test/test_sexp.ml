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

(* The reader's error contract: every message, line and column, as
   [parse_one] (with a filename, which lexical messages name) or
   [parse_all] (which names "<string>") reports it.  A lexical error
   is located where the lexer stood when it gave up; a syntactic one
   at the start of the offending token (an unterminated list or
   vector at its opening bracket). *)
let error_cases =
  [ (* unterminated list, vector, string and block comment *)
    ("(a b", "unterminated list", 1, 1);
    ("(a\n  (b c)\n", "unterminated list", 1, 1);
    ("(a\r\n b", "unterminated list", 1, 1);
    ("(x (y", "unterminated list", 1, 4);
    ("#(a", "unterminated vector", 1, 1);
    ("\"abc", "t.scm: unterminated string literal", 1, 5);
    ("(x\n \"ab\ncd", "t.scm: unterminated string literal", 3, 3);
    ("#| unclosed", "t.scm: unterminated block comment", 1, 12);
    ("#| a #| b |# c", "t.scm: unterminated block comment", 1, 15);
    (* # syntax and character names *)
    ("#q", "t.scm: unknown # syntax #q", 1, 1);
    ("(a #q)", "t.scm: unknown # syntax #q", 1, 4);
    ("#", "t.scm: unknown # syntax #\000", 1, 1);
    ("#tru", "t.scm: unknown # syntax \"#tru\"", 1, 5);
    ("#\\bogus", "t.scm: unknown character name #\\bogus", 1, 8);
    ("  #\\Spacer", "t.scm: unknown character name #\\Spacer", 1, 11);
    ("#\\", "t.scm: unterminated character literal", 1, 3);
    (* string escapes *)
    ("\"a\\qb\"", "t.scm: unknown string escape \\q", 1, 4);
    ("\"ab\\", "t.scm: unknown string escape \\\000", 1, 5);
    (* each misuse of `.' *)
    ("(. a)", "`.' with no preceding datum", 1, 2);
    ("(a . )", "unexpected `)'", 1, 6);
    ("(a . b c)", "expected `)' after dotted tail", 1, 8);
    ("(a . b . c)", "expected `)' after dotted tail", 1, 8);
    ("#(a . b)", "`.' not allowed in vector", 1, 5);
    (". a", "unexpected `.'", 1, 1);
    ("(a .", "unexpected end of input", 1, 5);
    (* a trailing datum *)
    ("1 2", "trailing data after datum", 1, 3);
    ("(a) b", "trailing data after datum", 1, 5);
    ("(ok)\n  (bad . )", "trailing data after datum", 2, 3);
    (* malformed numbers and atoms *)
    ("1x", "t.scm: malformed number \"1x\"", 1, 3);
    ("-2.5e", "t.scm: malformed number \"-2.5e\"", 1, 6);
    ("+.5z", "t.scm: malformed number \"+.5z\"", 1, 5);
    ("(a \000)", "t.scm: empty atom", 1, 4);
    (* empty input and stray closers *)
    ("", "unexpected end of input", 1, 1);
    ("  ; only\n", "unexpected end of input", 2, 1);
    ("'", "unexpected end of input", 1, 2);
    ("`(a ,@", "unexpected end of input", 1, 7);
    (")", "unexpected `)'", 1, 1);
    ("]", "unexpected `)'", 1, 1)
  ]

let check_error what read (src, msg, line, column) =
  let name = Printf.sprintf "%s %S" what src in
  match read src with
  | exception Sexp.Parser.Error (m, pos) ->
    Alcotest.(check string) (name ^ " message") msg m;
    Alcotest.(check (pair int int))
      (name ^ " line, column") (line, column)
      (pos.Sexp.Lexer.line, pos.Sexp.Lexer.column)
  | exception Sexp.Lexer.Error (m, _) ->
    Alcotest.failf "%s: lexer error %S escaped the parser" name m
  | _ -> Alcotest.failf "%s: expected a parse error" name

(* [parse_all] reads a whole program: a second datum and an empty
   input are no error there, and its lexical messages name the
   default filename "<string>". *)
let whole_program_ok = [ "1 2"; "(a) b"; "(ok)\n  (bad . )"; ""; "  ; only\n" ]

let all_cases =
  List.filter_map
    (fun (src, msg, line, column) ->
      if List.mem src whole_program_ok then None
      else
        let prefix = "t.scm: " in
        let n = String.length prefix in
        let msg =
          if String.length msg >= n && String.sub msg 0 n = prefix then
            "<string>: " ^ String.sub msg n (String.length msg - n)
          else msg
        in
        Some (src, msg, line, column))
    error_cases

let test_errors () =
  List.iter
    (check_error "parse_one" (Sexp.Parser.parse_one ~filename:"t.scm"))
    error_cases;
  List.iter (check_error "parse_all" parse_all) all_cases

let test_positions () =
  List.iter (check_error "parse_all" parse_all)
    [ ("(ok)\n  (bad . )", "unexpected `)'", 2, 10);
      ("(ok)\n\n   #(1 . 2)", "`.' not allowed in vector", 3, 8);
      ("; c\n#| x\n y |#  (a\n", "unterminated list", 3, 8);
      ("\"a\nb\" \"c\n\\z\"", "<string>: unknown string escape \\z", 3, 2);
      ("(a)\r\n  1x", "<string>: malformed number \"1x\"", 2, 5) ]

(* Every program the reproduction reads -- the prelude and each
   workload -- reads, prints with [Datum.to_string] and reads again to
   the same data. *)
let test_sources_reread () =
  List.iter
    (fun (name, src) ->
      let ds = parse_all src in
      let printed = String.concat "\n" (List.map Sexp.Datum.to_string ds) in
      let again = parse_all printed in
      Alcotest.(check int) (name ^ " datum count") (List.length ds)
        (List.length again);
      List.iteri
        (fun i (a, b) ->
          Alcotest.check datum (Printf.sprintf "%s datum %d" name i) a b)
        (List.combine ds again))
    (("prelude", Vscheme.Prelude.source)
    :: List.map
         (fun (w : Workloads.Workload.t) -> (w.name, w.source))
         Workloads.Workload.all)

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
          Alcotest.test_case "positions" `Quick test_positions;
          Alcotest.test_case "sources reread" `Quick test_sources_reread
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest roundtrip_prop ])
    ]
