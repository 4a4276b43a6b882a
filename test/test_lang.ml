(* End-to-end language tests: expander, compiler and VM, exercised
   through Machine.eval_string.  Each [ev] case compares the printed
   result value. *)

let machine () =
  Vscheme.Machine.create
    { Vscheme.Machine.default_config with heap_bytes = 8 * 1024 * 1024 }

let eval m src =
  Vscheme.Machine.value_to_string m (Vscheme.Machine.eval_string m src)

let ev_cases =
  [ (* self-evaluating and quote *)
    ("integer", "42", "42");
    ("negative", "-7", "-7");
    ("true", "#t", "#t");
    ("false", "#f", "#f");
    ("char", "#\\q", "#\\q");
    ("string", {|"abc"|}, {|"abc"|});
    ("real", "2.5", "2.5");
    ("quote symbol", "'abc", "abc");
    ("quote list", "'(1 2 3)", "(1 2 3)");
    ("quote nested", "'(a (b . c) #(1 2))", "(a (b . c) #(1 2))");
    ("quote empty", "'()", "()");
    (* arithmetic *)
    ("add", "(+ 1 2 3 4)", "10");
    ("add nothing", "(+)", "0");
    ("subtract", "(- 10 3 2)", "5");
    ("negate", "(- 5)", "-5");
    ("multiply", "(* 2 3 4)", "24");
    ("divide", "(/ 7 2)", "3.5");
    ("reciprocal", "(/ 4)", "0.25");
    ("quotient", "(quotient 17 5)", "3");
    ("remainder", "(remainder 17 5)", "2");
    ("remainder negative", "(remainder -7 2)", "-1");
    ("modulo", "(modulo -7 2)", "1");
    ("mixed float", "(+ 1 0.5)", "1.5");
    ("comparison chain", "(< 1 2 3)", "#t");
    ("comparison fail", "(< 1 3 2)", "#f");
    ("equals", "(= 2 2 2)", "#t");
    ("max", "(max 1 7 3)", "7");
    ("min float contagion", "(min 2 1.5)", "1.5");
    ("abs", "(abs -9)", "9");
    ("sqrt", "(sqrt 16)", "4.");
    ("even", "(even? 4)", "#t");
    ("odd", "(odd? 4)", "#f");
    ("zero", "(zero? 0)", "#t");
    ("ash left", "(ash 1 4)", "16");
    ("ash right", "(ash 16 -2)", "4");
    ("logand", "(logand 12 10)", "8");
    ("logor", "(logor 12 10)", "14");
    ("logxor", "(logxor 12 10)", "6");
    ("floor", "(floor 2.7)", "2.");
    ("exact->inexact", "(exact->inexact 3)", "3.");
    ("inexact->exact", "(inexact->exact 3.9)", "3");
    (* predicates and equality *)
    ("eq symbols", "(eq? 'a 'a)", "#t");
    ("eq lists", "(eq? (list 1) (list 1))", "#f");
    ("eqv floats", "(eqv? 1.5 1.5)", "#t");
    ("equal lists", "(equal? '(1 (2 3)) (list 1 (list 2 3)))", "#t");
    ("equal strings", {|(equal? "ab" (string-append "a" "b"))|}, "#t");
    ("equal vectors", "(equal? #(1 2) (vector 1 2))", "#t");
    ("equal differs", "(equal? '(1 2) '(1 3))", "#f");
    ("pair?", "(pair? '(1))", "#t");
    ("pair? nil", "(pair? '())", "#f");
    ("null?", "(null? '())", "#t");
    ("symbol?", "(symbol? 'x)", "#t");
    ("procedure?", "(procedure? (lambda (x) x))", "#t");
    ("procedure? prim", "(procedure? car)", "#t");
    ("not", "(not #f)", "#t");
    ("not value", "(not 3)", "#f");
    (* conditionals and derived forms *)
    ("if true", "(if #t 1 2)", "1");
    ("if false", "(if #f 1 2)", "2");
    ("if one-armed", "(if #f 1)", "#f");
    ("cond", "(cond ((= 1 2) 'a) ((= 1 1) 'b) (else 'c))", "b");
    ("cond else", "(cond (#f 1) (else 2))", "2");
    ("cond test-only", "(cond (#f) (7))", "7");
    ("cond arrow", "(cond ((assq 'b '((a 1) (b 2))) => cadr) (else 'no))", "2");
    ("case", "(case (* 2 3) ((2 3 5 7) 'prime) ((1 4 6 8 9) 'composite))", "composite");
    ("case else", "(case 'z ((a) 1) (else 2))", "2");
    ("and", "(and 1 2 3)", "3");
    ("and empty", "(and)", "#t");
    ("and short-circuit", "(and #f (error \"boom\"))", "#f");
    ("or", "(or #f 2 3)", "2");
    ("or empty", "(or)", "#f");
    ("when", "(when (= 1 1) 'yes)", "yes");
    ("when false", "(when (= 1 2) 'yes)", "#f");
    ("unless", "(unless (= 1 2) 'yes)", "yes");
    (* binding forms *)
    ("let", "(let ((x 1) (y 2)) (+ x y))", "3");
    ("let shadows", "(let ((x 1)) (let ((x 2)) x))", "2");
    ("let is parallel", "(let ((x 1)) (let ((x 2) (y x)) y))", "1");
    ("let*", "(let* ((x 1) (y (+ x 1))) y)", "2");
    ("letrec", "(letrec ((e? (lambda (n) (if (= n 0) #t (o? (- n 1))))) (o? (lambda (n) (if (= n 0) #f (e? (- n 1)))))) (e? 10))", "#t");
    ("named let", "(let loop ((i 0) (acc 1)) (if (= i 5) acc (loop (+ i 1) (* acc 2))))", "32");
    ("begin", "(begin 1 2 3)", "3");
    ("nested let in operand", "(+ (let ((a 1)) a) (let ((b 2)) b))", "3");
    ("let under if join", "(let ((a (if #t (let ((b 1)) b) 2)) (c 10)) (+ a c))", "11");
    (* lambdas and closures *)
    ("apply lambda", "((lambda (x y) (* x y)) 6 7)", "42");
    ("closure capture", "(define (adder n) (lambda (x) (+ x n))) ((adder 5) 10)", "15");
    ("closure shares cell",
     "(define (counter) (let ((n 0)) (lambda () (set! n (+ n 1)) n))) \
      (define c (counter)) (c) (c) (c)",
     "3");
    ("two counters independent",
     "(define (counter) (let ((n 0)) (lambda () (set! n (+ n 1)) n))) \
      (define a (counter)) (define b (counter)) (a) (a) (b)",
     "1");
    ("rest args", "((lambda args args) 1 2 3)", "(1 2 3)");
    ("rest after required", "((lambda (a . rest) (cons a rest)) 1 2 3)", "(1 2 3)");
    ("rest empty", "((lambda (a . rest) rest) 1)", "()");
    ("higher order", "(map (lambda (f) (f 3)) (list (lambda (x) (* x x)) (lambda (x) (- x))))", "(9 -3)");
    ("prim as value", "(map car '((1 2) (3 4)))", "(1 3)");
    ("deep capture",
     "(define (f a) (lambda (b) (lambda (c) (+ a b c)))) (((f 1) 2) 3)",
     "6");
    ("set! on captured parameter",
     "(define (f x) (lambda () (set! x (+ x 1)) x)) (define g (f 10)) (g) (g)",
     "12");
    (* recursion and tail calls *)
    ("factorial", "(define (fact n) (if (< n 2) 1 (* n (fact (- n 1))))) (fact 12)", "479001600");
    ("fib", "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib 15)", "610");
    ("deep tail loop",
     "(let loop ((i 0)) (if (= i 1000000) 'done (loop (+ i 1))))",
     "done");
    ("mutual tail recursion",
     "(define (e? n) (if (= n 0) #t (o? (- n 1)))) \
      (define (o? n) (if (= n 0) #f (e? (- n 1)))) (e? 200000)",
     "#t");
    ("internal defines",
     "(define (f x) (define y (* x 2)) (define (g z) (+ z y)) (g 1)) (f 10)",
     "21");
    (* data structures *)
    ("cons", "(cons 1 2)", "(1 . 2)");
    ("list", "(list 1 'a \"b\")", "(1 a \"b\")");
    ("set-car!", "(define p (cons 1 2)) (set-car! p 9) p", "(9 . 2)");
    ("vectors", "(let ((v (make-vector 3 'x))) (vector-set! v 1 'y) (vector->list v))", "(x y x)");
    ("vector literal", "(vector-ref #(a b c) 1)", "b");
    ("list->vector", "(list->vector '(1 2))", "#(1 2)");
    ("vector-fill!", "(let ((v (make-vector 3 0))) (vector-fill! v 7) v)", "#(7 7 7)");
    ("memq", "(memq 'c '(a b c d))", "(c d)");
    ("memq miss", "(memq 'z '(a b))", "#f");
    ("memv", "(memv 2 '(1 2 3))", "(2 3)");
    ("assq", "(assq 'b '((a 1) (b 2)))", "(b 2)");
    ("assv", "(assv 2 '((1 a) (2 b)))", "(2 b)");
    (* strings, chars, symbols *)
    ("string-append", {|(string-append "foo" "" "bar")|}, {|"foobar"|});
    ("substring", {|(substring "hello" 1 3)|}, {|"el"|});
    ("string-length", {|(string-length "abc")|}, "3");
    ("string=?", {|(string=? "a" "a")|}, "#t");
    ("string<?", {|(string<? "abc" "abd")|}, "#t");
    ("symbol->string", "(symbol->string 'hey)", {|"hey"|});
    ("string->symbol", {|(eq? (string->symbol "hey") 'hey)|}, "#t");
    ("number->string", "(number->string 123)", {|"123"|});
    ("list->string", "(list->string '(#\\h #\\i))", {|"hi"|});
    ("char->integer", "(char->integer #\\a)", "97");
    ("integer->char", "(integer->char 65)", "#\\A");
    ("char-upcase", "(char-upcase #\\x)", "#\\X");
    ("char-alphabetic?", "(char-alphabetic? #\\5)", "#f");
    ("char-numeric?", "(char-numeric? #\\5)", "#t");
    ("gensym distinct", "(eq? (gensym) (gensym))", "#f");
    (* quasiquote *)
    ("qq simple", "`(1 2)", "(1 2)");
    ("qq unquote", "`(1 ,(+ 1 1))", "(1 2)");
    ("qq splicing", "`(0 ,@(list 1 2) 3)", "(0 1 2 3)");
    ("qq nested level", "`(a `(b ,(c)))", "(a (quasiquote (b (unquote (c)))))");
    ("qq vector", "`#(1 ,(+ 1 1))", "#(1 2)");
    ("qq dotted", "`(1 . ,(+ 1 1))", "(1 . 2)");
    (* prelude library *)
    ("length", "(length '(a b c))", "3");
    ("append", "(append '(1) '(2 3) '(4))", "(1 2 3 4)");
    ("append none", "(append)", "()");
    ("reverse", "(reverse '(1 2 3))", "(3 2 1)");
    ("map two lists", "(map + '(1 2) '(10 20))", "(11 22)");
    ("filter", "(filter even? '(1 2 3 4 5 6))", "(2 4 6)");
    ("fold-left", "(fold-left - 10 '(1 2 3))", "4");
    ("fold-right", "(fold-right cons '() '(1 2))", "(1 2)");
    ("assoc", {|(assoc "b" '(("a" 1) ("b" 2)))|}, {|("b" 2)|});
    ("member", "(member '(1) '((0) (1) (2)))", "((1) (2))");
    ("iota", "(iota 4)", "(0 1 2 3)");
    ("list-ref", "(list-ref '(a b c) 2)", "c");
    ("list-tail", "(list-tail '(a b c) 1)", "(b c)");
    ("sort", "(sort '(3 1 2) <)", "(1 2 3)");
    ("sort stable pairs", "(map car (sort '((2 a) (1 b) (2 c) (1 d)) (lambda (x y) (< (car x) (car y)))))", "(1 1 2 2)");
    ("any", "(any even? '(1 3 4))", "#t");
    ("every", "(every even? '(2 4 5))", "#f");
    ("delete-duplicates", "(delete-duplicates '(a b a c b))", "(a c b)");
    ("string->list", {|(string->list "ab")|}, "(#\\a #\\b)");
    ("vector-map", "(vector-map (lambda (x) (* x x)) #(1 2 3))", "#(1 4 9)");
    ("caar etc", "(caddr '(1 2 3))", "3");
    (* hash tables *)
    ("table basic",
     "(define t (make-table)) (table-set! t 'a 1) (table-ref t 'a)",
     "1");
    ("table default", "(table-ref (make-table) 'missing 'dflt)", "dflt");
    ("table overwrite",
     "(define t (make-table)) (table-set! t 'k 1) (table-set! t 'k 2) \
      (list (table-ref t 'k) (table-count t))",
     "(2 1)");
    ("table growth",
     "(define t (make-table 4)) \
      (for-each (lambda (i) (table-set! t i (* i i))) (iota 100)) \
      (list (table-count t) (table-ref t 77))",
     "(100 5929)");
    ("table->list count",
     "(define t (make-table)) (table-set! t 'x 1) (table-set! t 'y 2) \
      (length (table->list t))",
     "2");
    (* apply and do *)
    ("apply list", "(apply + '(1 2 3))", "6");
    ("apply extra args", "(apply + 1 2 '(3 4))", "10");
    ("apply empty list", "(apply + 5 '())", "5");
    ("apply lambda", "(apply (lambda (a b) (cons a b)) '(1 2))", "(1 . 2)");
    ("apply prim closure", "(apply max '(3 9 2))", "9");
    ("apply in tail position",
     "(define (f . xs) (if (null? xs) 'end (apply f (cdr xs)))) (f 1 2 3)",
     "end");
    ("apply first-class", "((lambda (ap) (ap + '(1 2))) apply)", "3");
    ("do loop", "(do ((i 0 (+ i 1)) (acc 1 (* acc 2))) ((= i 5) acc))", "32");
    ("do without step", "(do ((i 0 (+ i 1)) (x 'kept)) ((= i 3) x))", "kept");
    ("do with body",
     "(define n 0) (do ((i 0 (+ i 1))) ((= i 4) n) (set! n (+ n i)))",
     "6");
    ("do empty result", "(do ((i 0 (+ i 1))) ((= i 2)))", "#f");
    (* compiler stress: captures, branches, stack discipline *)
    ("capture let-bound under branch",
     "(define (f c) ((if c (let ((x 1)) (lambda () x)) (lambda () 0))))       (list (f #t) (f #f))",
     "(1 0)");
    ("two closures share a let cell",
     "(define (mk) (let ((n 0)) (cons (lambda () (set! n (+ n 1)) n) (lambda () n))))       (define p (mk)) ((car p)) ((car p)) ((cdr p))",
     "2");
    ("mutual internal defines with captures",
     "(define (f base)         (define (even2? n) (if (= n base) #t (odd2? (- n 1))))         (define (odd2? n) (if (= n base) #f (even2? (- n 1))))         (even2? (+ base 6)))       (f 3)",
     "#t");
    ("apply to rest-taking callee", "(apply (lambda args (length args)) 1 '(2 3 4))", "4");
    ("nested lets in both if arms",
     "(define (g c) (+ (if c (let ((a 1) (b 2)) (+ a b)) (let ((z 9)) z)) 100))       (list (g #t) (g #f))",
     "(103 109)");
    ("let body result over many bindings",
     "(let ((a 1) (b 2) (c 3) (d 4) (e 5)) (let ((f 6)) (+ a b c d e f)))",
     "21");
    ("deep non-tail recursion under captures",
     "(define (build d) (if (= d 0) (lambda () 1) (let ((k (build (- d 1)))) (lambda () (+ 1 (k))))))       ((build 100))",
     "101");
    (* misc *)
    ("random deterministic bound", "(< (random 10) 10)", "#t");
    ("eof-object?", "(eof-object? 5)", "#f");
    ("define returns value later", "(define x 5) (define y (* x 2)) y", "10");
    ("set! global", "(define x 1) (set! x 99) x", "99");
    ("runtime-collections", "(runtime-collections)", "0")
  ]

let test_eval (name, src, expected) =
  Alcotest.test_case name `Quick (fun () ->
      let m = machine () in
      Alcotest.(check string) name expected (eval m src))

(* --- Error behaviour -------------------------------------------------- *)

let expect_runtime_error src =
  let m = machine () in
  match eval m src with
  | exception Vscheme.Heap.Runtime_error _ -> ()
  | v -> Alcotest.fail (Printf.sprintf "expected runtime error, got %s" v)

let expect_compile_error src =
  let m = machine () in
  match eval m src with
  | exception Vscheme.Compiler.Compile_error _ -> ()
  | v -> Alcotest.fail (Printf.sprintf "expected compile error, got %s" v)

let expect_syntax_error src =
  let m = machine () in
  match eval m src with
  | exception Vscheme.Expander.Syntax_error _ -> ()
  | v -> Alcotest.fail (Printf.sprintf "expected syntax error, got %s" v)

let test_apply_errors () =
  expect_runtime_error "(apply + 1)";
  expect_runtime_error "(apply + '(1 . 2))";
  expect_runtime_error "(apply 5 '(1 2))"

let test_runtime_errors () =
  expect_runtime_error "(car 5)";
  expect_runtime_error "(car '())";
  expect_runtime_error "(vector-ref (vector 1) 2)";
  expect_runtime_error "(undefined-variable)";
  expect_runtime_error "(quotient 1 0)";
  expect_runtime_error "((lambda (x) x) 1 2)";
  expect_runtime_error "((lambda (x y) x) 1)";
  expect_runtime_error "(5 6)";
  expect_runtime_error "(error \"deliberate\" 1 2)";
  expect_runtime_error "(+ 'a 1)";
  expect_runtime_error "(string-ref \"ab\" 2)";
  expect_runtime_error "(letrec ((x (+ x 1))) x)";
  expect_runtime_error "(define (f) (table-ref (make-table) 'k)) (f)"

let test_compile_errors () =
  expect_compile_error "(car 1 2)";
  expect_compile_error "(cons 1)";
  expect_compile_error "(lambda (x x) x)"

let test_syntax_errors () =
  expect_syntax_error "(if)";
  expect_syntax_error "(set! 5 1)";
  expect_syntax_error "(lambda)";
  expect_syntax_error "(let ((x)) x)";
  expect_syntax_error "(define)";
  expect_syntax_error "(unquote 1)";
  expect_syntax_error "()"

let test_shadowing_primitives () =
  (* A lexical binding of a primitive name must win. *)
  let m = machine () in
  Alcotest.(check string) "shadowed car" "42"
    (eval m "(let ((car (lambda (x) 42))) (car '(1 2)))")

let test_stack_overflow () =
  let m = machine () in
  match eval m "(define (f n) (+ 1 (f (+ n 1)))) (f 0)" with
  | exception Vscheme.Heap.Runtime_error msg ->
    Alcotest.(check bool) "mentions stack" true
      (String.length msg >= 5)
  | v -> Alcotest.fail ("expected stack overflow, got " ^ v)

let test_output () =
  let m = machine () in
  ignore (Vscheme.Machine.eval_string m {|(display "x=") (display 42) (newline) (write "s")|});
  Alcotest.(check string) "output buffer" "x=42\n\"s\"" (Vscheme.Machine.output m);
  Vscheme.Machine.clear_output m;
  Alcotest.(check string) "cleared" "" (Vscheme.Machine.output m)

(* Determinism: the same program produces identical instruction counts
   and results across machines. *)
let test_determinism () =
  let run () =
    let m = machine () in
    let v = eval m "(define (go n) (if (= n 0) '() (cons (random 100) (go (- n 1))))) (go 20)" in
    (v, (Vscheme.Machine.stats m).Vscheme.Machine.mutator_insns)
  in
  let v1, i1 = run () in
  let v2, i2 = run () in
  Alcotest.(check string) "same value" v1 v2;
  Alcotest.(check int) "same instruction count" i1 i2

(* --- Capture order ---------------------------------------------------- *)

(* A flat closure's slots are numbered in the order its body first
   uses each captured variable, so a reordered capture changes the
   closure layout, every [Free] index and the traces.  This program
   nests lambdas three deep below [outer], boxes [b] and [c] with
   [set!], shadows [a] with a [let] and [b] with a parameter, and
   captures both from a frame ([L]) and from a closure ([F]). *)
let capture_program =
  {|(define (outer a b)
      (let ((c (* a 2)))
        (set! b (+ b 1))
        (lambda (d)
          (let ((a (+ d c)))
            (lambda (e)
              (set! c (+ c e))
              (cons (lambda () (+ e a b c d))
                    (lambda (b) (- b c a))))))))|}

let show_instr (i : Vscheme.Bytecode.instr) =
  match i with
  | Imm v -> Printf.sprintf "imm %d" v
  | Const k -> Printf.sprintf "const %d" k
  | Local k -> Printf.sprintf "local %d" k
  | Set_local k -> Printf.sprintf "set-local %d" k
  | Free k -> Printf.sprintf "free %d" k
  | Global k -> Printf.sprintf "global %d" k
  | Set_global k -> Printf.sprintf "set-global %d" k
  | Make_closure k -> Printf.sprintf "closure %d" k
  | Call n -> Printf.sprintf "call %d" n
  | Tail_call n -> Printf.sprintf "tail-call %d" n
  | Return -> "return"
  | Jump k -> Printf.sprintf "jump %d" k
  | Jump_if_false k -> Printf.sprintf "jump-if-false %d" k
  | Pop -> "pop"
  | Slide n -> Printf.sprintf "slide %d" n
  | Make_cell -> "make-cell"
  | Cell_ref -> "cell-ref"
  | Cell_set -> "cell-set"
  | Prim (p, n) -> Printf.sprintf "prim %s %d" (Vscheme.Primitives.spec p).name n
  | Apply n -> Printf.sprintf "apply %d" n
  | Tail_apply n -> Printf.sprintf "tail-apply %d" n

let show_capture (c : Vscheme.Bytecode.capture) =
  match c with
  | Cap_local k -> Printf.sprintf "L%d" k
  | Cap_free k -> Printf.sprintf "F%d" k

(* Each registered code object as "id name/arity [captures]: code",
   compiled against a linkage that needs no machine. *)
let compiled_codes src =
  let codes = ref [] and globals = Hashtbl.create 8 in
  let lk =
    { Vscheme.Compiler.intern_constant =
        (function
          | Sexp.Datum.Int i -> Vscheme.Value.fixnum i
          | d -> Alcotest.failf "unexpected literal %s" (Sexp.Datum.to_string d));
      global_index =
        (fun x ->
          match Hashtbl.find_opt globals x with
          | Some i -> i
          | None ->
            let i = Hashtbl.length globals in
            Hashtbl.add globals x i;
            i);
      register_code =
        (fun ~name ~arity ~has_rest:_ ~captures ~instrs ~consts:_ ->
          let id = List.length !codes in
          codes :=
            Printf.sprintf "%d %s/%d [%s]: %s" id name arity
              (String.concat " " (Array.to_list (Array.map show_capture captures)))
              (String.concat "; " (Array.to_list (Array.map show_instr instrs)))
            :: !codes;
          id)
    }
  in
  List.iter
    (fun form -> ignore (Vscheme.Compiler.compile_toplevel lk form))
    (Vscheme.Expander.expand_program (Sexp.Parser.parse_all src));
  List.rev !codes

let test_capture_order () =
  Alcotest.(check (list string))
    "code objects"
    [ "0 lambda/0 [L0 F1 F2 F0 F3]: free 0; free 1; free 2; cell-ref; free 3; \
       cell-ref; free 4; prim + 5; return";
      "1 lambda/1 [F0 F1]: local 0; make-cell; set-local 0; local 0; cell-ref; \
       free 0; cell-ref; free 1; prim - 3; return";
      "2 lambda/1 [F0 L3 F1 L0]: free 0; cell-ref; local 0; prim + 2; free 0; \
       cell-set; pop; closure 0; closure 1; prim cons 2; return";
      "3 lambda/1 [L4 L1]: local 0; free 0; cell-ref; prim + 2; closure 2; \
       return";
      "4 outer/2 []: local 1; make-cell; set-local 1; local 0; imm 8; prim * 2; \
       make-cell; local 1; cell-ref; imm 4; prim + 2; local 1; cell-set; pop; \
       closure 3; return";
      "5 define outer/0 []: closure 4; set-global 0; return" ]
    (compiled_codes capture_program)

(* The static area a workload leaves after the prelude and its
   definitions are loaded: its quoted constants, constant pools,
   symbols and closures of primitives.  Its layout is part of every
   trace, so it is pinned by digest; an interned constant built in
   another order or shared differently changes it. *)
let static_digest (w : Workloads.Workload.t) =
  let m = machine () in
  Workloads.Workload.load m w;
  let heap = Vscheme.Machine.heap m in
  let mem = Vscheme.Machine.mem m in
  let words = Vscheme.Heap.stack_base heap in
  let b = Bytes.create (8 * words) in
  for a = 0 to words - 1 do
    Bytes.set_int64_le b (8 * a) (Int64.of_int (Vscheme.Mem.peek mem a))
  done;
  Digest.to_hex (Digest.bytes b)

let test_static_layout () =
  List.iter
    (fun ((w : Workloads.Workload.t), want) ->
      Alcotest.(check string) (w.name ^ " static area") want (static_digest w))
    Workloads.Workload.
      [ (selfcomp, "c8246818e8772865bad625dee2422844");
        (prover, "1c517d6715e51f2ad06e6de87024f317");
        (lred, "2972824837fb7189558d6bd5659f03fc");
        (nbody, "43667efd6da6be18020c939c453f5250");
        (mexpr, "6550278286b3f49c249265c3c05dee3f") ]

(* Property: compiled arithmetic agrees with OCaml on fixnums. *)
let arith_prop =
  QCheck.Test.make ~count:200 ~name:"compiled arithmetic agrees with host"
    QCheck.(pair (int_range (-10000) 10000) (int_range (-10000) 10000))
    (fun (a, b) ->
      let m = machine () in
      let src = Printf.sprintf "(list (+ %d %d) (- %d %d) (* %d %d))" a b a b a b in
      eval m src = Printf.sprintf "(%d %d %d)" (a + b) (a - b) (a * b))

(* Property: apply is extensionally a call. *)
let apply_prop =
  QCheck.Test.make ~count:50 ~name:"apply spreads like a direct call"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 8) (int_range 0 999))
    (fun xs ->
      let m = machine () in
      let lit = String.concat " " (List.map string_of_int xs) in
      eval m (Printf.sprintf "(apply list 0 '(%s))" lit)
      = eval m (Printf.sprintf "(list 0 %s)" lit))

(* Property: (reverse (reverse l)) = l through the whole pipeline. *)
let reverse_prop =
  QCheck.Test.make ~count:50 ~name:"reverse involution in vscheme"
    QCheck.(list_of_size (QCheck.Gen.int_bound 20) (int_range 0 999))
    (fun xs ->
      let m = machine () in
      let lit = "(" ^ String.concat " " (List.map string_of_int xs) ^ ")" in
      eval m (Printf.sprintf "(reverse (reverse '%s))" lit) = lit
      || (xs = [] && eval m "(reverse (reverse '()))" = "()"))

let () =
  Alcotest.run "lang"
    [ ("eval", List.map test_eval ev_cases);
      ( "errors",
        [ Alcotest.test_case "runtime errors" `Quick test_runtime_errors;
          Alcotest.test_case "apply errors" `Quick test_apply_errors;
          Alcotest.test_case "compile errors" `Quick test_compile_errors;
          Alcotest.test_case "syntax errors" `Quick test_syntax_errors;
          Alcotest.test_case "shadowing primitives" `Quick test_shadowing_primitives;
          Alcotest.test_case "stack overflow" `Quick test_stack_overflow
        ] );
      ( "machine",
        [ Alcotest.test_case "output buffer" `Quick test_output;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "capture order" `Quick test_capture_order;
          Alcotest.test_case "static area layout" `Quick test_static_layout
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest arith_prop;
          QCheck_alcotest.to_alcotest apply_prop;
          QCheck_alcotest.to_alcotest reverse_prop
        ] )
    ]
