exception Syntax_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Syntax_error s)) fmt

(* Shared by every machine in the process, including machines that
   worker domains (E-H1's cells, [repro record]'s workloads, serve
   workers) expand programs on at once. *)
let gensym_counter = Atomic.make 0

let gensym prefix =
  Format.sprintf "%%%s%d" prefix (1 + Atomic.fetch_and_add gensym_counter 1)

let datum_list who d =
  match Sexp.Datum.list_opt d with
  | Some ds -> ds
  | None -> fail "%s: improper list in %s" who (Sexp.Datum.to_string d)

let sym_name who d =
  match (d : Sexp.Datum.t) with
  | Sexp.Datum.Sym s -> s
  | _ -> fail "%s: expected identifier, got %s" who (Sexp.Datum.to_string d)

(* Split a lambda parameter list into required names and rest name. *)
let rec parse_params who d =
  match (d : Sexp.Datum.t) with
  | Sexp.Datum.Nil -> ([], None)
  | Sexp.Datum.Sym r -> ([], Some r)
  | Sexp.Datum.Cons (p, rest) ->
    let name = sym_name who p in
    let params, rest = parse_params who rest in
    (name :: params, rest)
  | _ -> fail "%s: bad parameter list" who

let rec expand_expr d =
  match (d : Sexp.Datum.t) with
  | Sexp.Datum.Sym x -> Ast.Var x
  | Sexp.Datum.Nil -> fail "empty application ()"
  | Sexp.Datum.Bool _ | Sexp.Datum.Int _ | Sexp.Datum.Real _
  | Sexp.Datum.Char _ | Sexp.Datum.Str _ | Sexp.Datum.Vec _ ->
    Ast.Quote d
  | Sexp.Datum.Cons (Sexp.Datum.Sym head, rest) -> expand_form head rest
  | Sexp.Datum.Cons (f, args) ->
    Ast.Call (expand_expr f, List.map expand_expr (datum_list "application" args))

and expand_form head rest =
  let args () = datum_list head rest in
  match head with
  | "quote" -> (
    match args () with
    | [ d ] -> Ast.Quote d
    | _ -> fail "quote: expected one datum")
  | "if" -> (
    match args () with
    | [ c; t ] -> Ast.If (expand_expr c, expand_expr t, Ast.Quote (Sexp.Datum.Bool false))
    | [ c; t; f ] -> Ast.If (expand_expr c, expand_expr t, expand_expr f)
    | _ -> fail "if: expected two or three subforms")
  | "set!" -> (
    match args () with
    | [ x; e ] -> Ast.Set (sym_name "set!" x, expand_expr e)
    | _ -> fail "set!: expected variable and expression")
  | "lambda" -> (
    match args () with
    | params :: body when body <> [] ->
      let params, rest_param = parse_params "lambda" params in
      Ast.Lambda
        { name = "lambda"; params; rest = rest_param; body = expand_body body }
    | _ -> fail "lambda: expected parameter list and body")
  | "begin" -> (
    match args () with
    | [] -> Ast.Quote (Sexp.Datum.Bool false)
    | [ e ] -> expand_expr e
    | es -> Ast.Seq (List.map expand_expr es))
  | "let" -> expand_let (args ())
  | "let*" -> expand_let_star (args ())
  | "letrec" | "letrec*" -> expand_letrec (args ())
  | "cond" -> expand_cond (args ())
  | "case" -> expand_case (args ())
  | "and" -> expand_and (args ())
  | "or" -> expand_or (args ())
  | "when" -> (
    match args () with
    | test :: body when body <> [] ->
      Ast.If
        ( expand_expr test,
          expand_body body,
          Ast.Quote (Sexp.Datum.Bool false) )
    | _ -> fail "when: expected test and body")
  | "unless" -> (
    match args () with
    | test :: body when body <> [] ->
      Ast.If
        ( expand_expr test,
          Ast.Quote (Sexp.Datum.Bool false),
          expand_body body )
    | _ -> fail "unless: expected test and body")
  | "do" -> expand_do (args ())
  | "quasiquote" -> (
    match args () with
    | [ d ] -> expand_quasiquote d 1
    | _ -> fail "quasiquote: expected one datum")
  | "unquote" | "unquote-splicing" -> fail "%s outside quasiquote" head
  | "define" -> fail "define in expression position"
  | _ ->
    Ast.Call (Ast.Var head, List.map expand_expr (datum_list "application" rest))

(* Bodies: leading internal defines become letrec*. *)
and expand_body forms =
  let defines, rest =
    let rec split acc = function
      | (Sexp.Datum.Cons (Sexp.Datum.Sym "define", _) as d) :: more ->
        split (d :: acc) more
      | forms -> (List.rev acc, forms)
    in
    split [] forms
  in
  if rest = [] then fail "body has no expression after internal defines";
  let tail =
    match rest with
    | [ e ] -> expand_expr e
    | es -> Ast.Seq (List.map expand_expr es)
  in
  if defines = [] then tail
  else begin
    let bindings = List.map parse_define defines in
    (* letrec* semantics: bind all names to undefined, then assign in
       order.  Assignment conversion in the compiler boxes these. *)
    let inits = List.map (fun (x, _) -> (x, Ast.Undefined)) bindings in
    let sets = List.map (fun (x, e) -> Ast.Set (x, e)) bindings in
    Ast.Let (inits, Ast.Seq (sets @ [ tail ]))
  end

and parse_define d =
  match (d : Sexp.Datum.t) with
  | Sexp.Datum.Cons (Sexp.Datum.Sym "define", rest) -> (
    match datum_list "define" rest with
    | Sexp.Datum.Sym x :: body -> (
      match body with
      | [ e ] -> (x, expand_expr e)
      | [] -> (x, Ast.Quote (Sexp.Datum.Bool false))
      | _ -> fail "define: too many subforms for %s" x)
    | Sexp.Datum.Cons (name_d, params) :: body when body <> [] ->
      let x = sym_name "define" name_d in
      let params, rest_param = parse_params "define" params in
      (x, Ast.Lambda { name = x; params; rest = rest_param; body = expand_body body })
    | _ -> fail "define: malformed")
  | _ -> fail "internal error: parse_define on non-define"

and expand_let = function
  | Sexp.Datum.Sym loop_name :: bindings :: body when body <> [] ->
    (* Named let: (let f ((x e)...) body) =
       (letrec ((f (lambda (x...) body))) (f e...)) *)
    let pairs = parse_bindings bindings in
    let params = List.map fst pairs in
    let inits = List.map snd pairs in
    let fn =
      Ast.Lambda
        { name = loop_name;
          params;
          rest = None;
          body = expand_body body
        }
    in
    Ast.Let
      ( [ (loop_name, Ast.Undefined) ],
        Ast.Seq
          [ Ast.Set (loop_name, fn); Ast.Call (Ast.Var loop_name, inits) ] )
  | bindings :: body when body <> [] ->
    let pairs = parse_bindings bindings in
    if pairs = [] then expand_body body
    else Ast.Let (pairs, expand_body body)
  | _ -> fail "let: malformed"

and expand_let_star = function
  | bindings :: body when body <> [] ->
    let pairs = parse_bindings bindings in
    let rec nest = function
      | [] -> expand_body body
      | (x, e) :: rest -> Ast.Let ([ (x, e) ], nest rest)
    in
    nest pairs
  | _ -> fail "let*: malformed"

and expand_letrec = function
  | bindings :: body when body <> [] ->
    let pairs = parse_bindings bindings in
    if pairs = [] then expand_body body
    else begin
      let inits = List.map (fun (x, _) -> (x, Ast.Undefined)) pairs in
      let sets = List.map (fun (x, e) -> Ast.Set (x, e)) pairs in
      Ast.Let (inits, Ast.Seq (sets @ [ expand_body body ]))
    end
  | _ -> fail "letrec: malformed"

and parse_bindings d =
  List.map
    (fun b ->
      match datum_list "binding" b with
      | [ x; e ] -> (sym_name "binding" x, expand_expr e)
      | _ -> fail "malformed binding %s" (Sexp.Datum.to_string b))
    (datum_list "bindings" d)

and expand_do forms =
  (* (do ((var init step)...) (test result...) body...) *)
  match forms with
  | bindings :: test_clause :: body ->
    let specs =
      List.map
        (fun b ->
          match datum_list "do binding" b with
          | [ x; init ] ->
            let name = sym_name "do" x in
            (name, expand_expr init, Ast.Var name)
          | [ x; init; step ] ->
            (sym_name "do" x, expand_expr init, expand_expr step)
          | _ -> fail "do: malformed binding %s" (Sexp.Datum.to_string b))
        (datum_list "do bindings" bindings)
    in
    let test, result =
      match datum_list "do test" test_clause with
      | [] -> fail "do: empty test clause"
      | test :: results ->
        ( expand_expr test,
          match results with
          | [] -> Ast.Quote (Sexp.Datum.Bool false)
          | [ r ] -> expand_expr r
          | rs -> Ast.Seq (List.map expand_expr rs) )
    in
    let loop = gensym "do" in
    let body_exprs = List.map expand_expr body in
    let again =
      Ast.Call (Ast.Var loop, List.map (fun (_, _, step) -> step) specs)
    in
    let loop_body =
      Ast.If (test, result, Ast.Seq (body_exprs @ [ again ]))
    in
    let fn =
      Ast.Lambda
        { name = loop;
          params = List.map (fun (x, _, _) -> x) specs;
          rest = None;
          body = loop_body
        }
    in
    Ast.Let
      ( [ (loop, Ast.Undefined) ],
        Ast.Seq
          [ Ast.Set (loop, fn);
            Ast.Call (Ast.Var loop, List.map (fun (_, init, _) -> init) specs)
          ] )
  | _ -> fail "do: malformed"

and expand_cond clauses =
  match clauses with
  | [] -> Ast.Quote (Sexp.Datum.Bool false)
  | clause :: rest -> (
    match datum_list "cond" clause with
    | Sexp.Datum.Sym "else" :: body when body <> [] ->
      if rest <> [] then fail "cond: else clause not last";
      expand_body body
    | [ test ] ->
      (* (cond (e) ...) yields e when true. *)
      let t = gensym "t" in
      Ast.Let
        ( [ (t, expand_expr test) ],
          Ast.If (Ast.Var t, Ast.Var t, expand_cond rest) )
    | [ test; Sexp.Datum.Sym "=>"; receiver ] ->
      let t = gensym "t" in
      Ast.Let
        ( [ (t, expand_expr test) ],
          Ast.If
            ( Ast.Var t,
              Ast.Call (expand_expr receiver, [ Ast.Var t ]),
              expand_cond rest ) )
    | test :: body when body <> [] ->
      Ast.If (expand_expr test, expand_body body, expand_cond rest)
    | _ -> fail "cond: malformed clause")

and expand_case = function
  | key :: clauses when clauses <> [] ->
    let k = gensym "k" in
    let rec clauses_to_cond = function
      | [] -> Ast.Quote (Sexp.Datum.Bool false)
      | clause :: rest -> (
        match datum_list "case" clause with
        | Sexp.Datum.Sym "else" :: body when body <> [] ->
          if rest <> [] then fail "case: else clause not last";
          expand_body body
        | data :: body when body <> [] ->
          let data = datum_list "case data" data in
          Ast.If
            ( Ast.Call
                (Ast.Var "memv", [ Ast.Var k; Ast.Quote (Sexp.Datum.list data) ]),
              expand_body body,
              clauses_to_cond rest )
        | _ -> fail "case: malformed clause")
    in
    Ast.Let ([ (k, expand_expr key) ], clauses_to_cond clauses)
  | _ -> fail "case: malformed"

and expand_and = function
  | [] -> Ast.Quote (Sexp.Datum.Bool true)
  | [ e ] -> expand_expr e
  | e :: rest ->
    Ast.If (expand_expr e, expand_and rest, Ast.Quote (Sexp.Datum.Bool false))

and expand_or = function
  | [] -> Ast.Quote (Sexp.Datum.Bool false)
  | [ e ] -> expand_expr e
  | e :: rest ->
    let t = gensym "t" in
    Ast.Let ([ (t, expand_expr e) ], Ast.If (Ast.Var t, Ast.Var t, expand_or rest))

(* Quasiquote at nesting depth [n].  Produces list-construction code;
   nested quasiquotes rebuild the marker structure. *)
and expand_quasiquote d n =
  let relist tag inner =
    (* Build (list 'tag <inner>). *)
    Ast.Call
      ( Ast.Var "list",
        [ Ast.Quote (Sexp.Datum.Sym tag); inner ] )
  in
  match (d : Sexp.Datum.t) with
  | Sexp.Datum.Cons (Sexp.Datum.Sym "unquote", Sexp.Datum.Cons (x, Sexp.Datum.Nil)) ->
    if n = 1 then expand_expr x
    else relist "unquote" (expand_quasiquote x (n - 1))
  | Sexp.Datum.Cons
      (Sexp.Datum.Sym "quasiquote", Sexp.Datum.Cons (x, Sexp.Datum.Nil)) ->
    relist "quasiquote" (expand_quasiquote x (n + 1))
  | Sexp.Datum.Cons
      ( Sexp.Datum.Cons
          (Sexp.Datum.Sym "unquote-splicing", Sexp.Datum.Cons (x, Sexp.Datum.Nil)),
        tail )
    when n = 1 ->
    Ast.Call (Ast.Var "append", [ expand_expr x; expand_quasiquote tail n ])
  | Sexp.Datum.Cons (a, tail) ->
    Ast.Call
      (Ast.Var "cons", [ expand_quasiquote a n; expand_quasiquote tail n ])
  | Sexp.Datum.Vec elems ->
    let items =
      Array.to_list (Array.map (fun e -> expand_quasiquote e n) elems)
    in
    Ast.Call
      ( Ast.Var "list->vector",
        [ List.fold_right
            (fun item acc -> Ast.Call (Ast.Var "cons", [ item; acc ]))
            items
            (Ast.Quote Sexp.Datum.Nil)
        ] )
  | Sexp.Datum.Nil | Sexp.Datum.Bool _ | Sexp.Datum.Int _ | Sexp.Datum.Real _
  | Sexp.Datum.Char _ | Sexp.Datum.Str _ | Sexp.Datum.Sym _ ->
    Ast.Quote d

let expand_toplevel d =
  match (d : Sexp.Datum.t) with
  | Sexp.Datum.Cons (Sexp.Datum.Sym "define", _) ->
    let x, e = parse_define d in
    Ast.Define (x, e)
  | Sexp.Datum.Cons (Sexp.Datum.Sym "begin", forms) -> (
    (* A top-level begin of defines is spliced by expand_program; in
       expression position it is an ordinary sequence. *)
    match datum_list "begin" forms with
    | [] -> Ast.Expr (Ast.Quote (Sexp.Datum.Bool false))
    | _ -> Ast.Expr (expand_expr d))
  | _ -> Ast.Expr (expand_expr d)

let rec expand_program ds =
  List.concat_map
    (fun d ->
      match (d : Sexp.Datum.t) with
      | Sexp.Datum.Cons (Sexp.Datum.Sym "begin", forms)
        when List.exists
               (function
                 | Sexp.Datum.Cons (Sexp.Datum.Sym "define", _) -> true
                 | _ -> false)
               (match Sexp.Datum.list_opt forms with
                | Some l -> l
                | None -> []) ->
        expand_program (datum_list "begin" forms)
      | d -> [ expand_toplevel d ])
    ds
