exception Compile_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Compile_error s)) fmt

type linkage = {
  intern_constant : Sexp.Datum.t -> Value.t;
  global_index : string -> int;
  register_code :
    name:string ->
    arity:int ->
    has_rest:bool ->
    captures:Bytecode.capture array ->
    instrs:Bytecode.instr array ->
    consts:Value.t array ->
    int;
}

(* --- Emitter: growable instruction buffer with a constant pool ------ *)

type emitter = {
  mutable arr : Bytecode.instr array;
  mutable len : int;
  mutable consts : Value.t list;  (* reversed *)
  mutable nconsts : int;
}

let new_emitter () =
  { arr = Array.make 32 Bytecode.Return; len = 0; consts = []; nconsts = 0 }

let emit em i =
  if em.len = Array.length em.arr then begin
    let bigger = Array.make (2 * em.len) Bytecode.Return in
    Array.blit em.arr 0 bigger 0 em.len;
    em.arr <- bigger
  end;
  em.arr.(em.len) <- i;
  em.len <- em.len + 1

let here em = em.len

let patch em at target =
  match em.arr.(at) with
  | Bytecode.Jump _ -> em.arr.(at) <- Bytecode.Jump target
  | Bytecode.Jump_if_false _ -> em.arr.(at) <- Bytecode.Jump_if_false target
  | _ -> assert false

(* A code object's pool holds each constant once; pools are a few
   entries long, so the slot is found by a scan. *)
let const_slot em v =
  let rec find k = function
    | [] ->
      em.consts <- v :: em.consts;
      em.nconsts <- em.nconsts + 1;
      em.nconsts - 1
    | c :: older -> if c = v then k else find (k - 1) older
  in
  find (em.nconsts - 1) em.consts

let finish em = (Array.sub em.arr 0 em.len, Array.of_list (List.rev em.consts))

(* --- Capture analysis ------------------------------------------------ *)

(* [List.assoc_opt] on names, by [String.equal]: the polymorphic
   comparison it would use costs several times more. *)
let rec lookup name = function
  | [] -> None
  | (x, v) :: rest -> if String.equal x name then Some v else lookup name rest

(* A lambda of the form being compiled, with the variables it
   captures, most recent first. *)
type closure_info = {
  lam : Ast.lambda;
  mutable caps : string list;
}

type analysis = {
  assigned : (string, unit) Hashtbl.t;
      (* every name some [set!] in the form assigns *)
  lambdas : closure_info Queue.t;
      (* the form's lambdas in pre-order, the order [comp] meets them *)
}

(* One walk over a top-level form.  A lambda captures each variable
   that occurs free in its body and is bound by an enclosing lambda or
   [let]; its captures are listed in the order of their first free
   occurrence in a depth-first, left-to-right walk of the body.

   [scope] holds the lexically bound names, innermost first, each with
   the nesting depth of the lambda that binds it (0 outside any
   lambda); [enclosing] holds the lambdas around the current point,
   innermost first, with their depths.  An occurrence of [x] bound at
   depth [d] is free in exactly the enclosing lambdas deeper than [d],
   so it is noted in each of them, innermost first, stopping at one
   that already captures [x]: every lambda outside that one saw the
   same earlier occurrence. *)
let analyse expr =
  let assigned = Hashtbl.create 16 in
  let lambdas = Queue.create () in
  let use scope enclosing x =
    match lookup x scope with
    | None -> ()
    | Some bound_at ->
      let rec note = function
        | (depth, info) :: outer when depth > bound_at ->
          if not (List.exists (String.equal x) info.caps) then begin
            info.caps <- x :: info.caps;
            note outer
          end
        | _ -> ()
      in
      note enclosing
  in
  let rec go scope depth enclosing e =
    match (e : Ast.expr) with
    | Ast.Quote _ | Ast.Undefined -> ()
    | Ast.Var x -> use scope enclosing x
    | Ast.If (c, t, f) ->
      go scope depth enclosing c;
      go scope depth enclosing t;
      go scope depth enclosing f
    | Ast.Set (x, e) ->
      Hashtbl.replace assigned x ();
      use scope enclosing x;
      go scope depth enclosing e
    | Ast.Lambda lam ->
      let info = { lam; caps = [] } in
      Queue.add info lambdas;
      let depth = depth + 1 in
      let bind scope x = (x, depth) :: scope in
      let scope = List.fold_left bind scope lam.params in
      let scope = Option.fold ~none:scope ~some:(bind scope) lam.rest in
      go scope depth ((depth, info) :: enclosing) lam.body
    | Ast.Call (f, args) ->
      go scope depth enclosing f;
      List.iter (go scope depth enclosing) args
    | Ast.Seq es -> List.iter (go scope depth enclosing) es
    | Ast.Let (bindings, body) ->
      List.iter (fun (_, init) -> go scope depth enclosing init) bindings;
      let scope =
        List.fold_left (fun scope (x, _) -> (x, depth) :: scope) scope bindings
      in
      go scope depth enclosing body
  in
  go [] 0 [] expr;
  { assigned; lambdas }

(* --- Compile-time environment --------------------------------------- *)

(* [frame] maps names to (stack slot, boxed) in the current frame,
   innermost binding first; [free] maps names captured from the
   enclosing context to (closure slot, boxed). *)
type ctx = {
  lk : linkage;
  an : analysis;
  frame : (string * (int * bool)) list;
  free : (string * (int * bool)) list;
}

type resolution =
  | In_frame of int * bool
  | In_free of int * bool
  | In_global

let resolve ctx name =
  match lookup name ctx.frame with
  | Some (slot, boxed) -> In_frame (slot, boxed)
  | None -> (
    match lookup name ctx.free with
    | Some (idx, boxed) -> In_free (idx, boxed)
    | None -> In_global)

let is_boxed ctx name = Hashtbl.mem ctx.an.assigned name

(* --- Compilation ----------------------------------------------------- *)

let rec comp ctx em depth ~tail expr =
  match (expr : Ast.expr) with
  | Ast.Quote d ->
    let v = ctx.lk.intern_constant d in
    if Value.is_pointer v then emit em (Bytecode.Const (const_slot em v))
    else emit em (Bytecode.Imm v);
    if tail then emit em Bytecode.Return
  | Ast.Undefined ->
    emit em (Bytecode.Imm Value.undefined);
    if tail then emit em Bytecode.Return
  | Ast.Var x ->
    (match resolve ctx x with
     | In_frame (slot, boxed) ->
       emit em (Bytecode.Local slot);
       if boxed then emit em Bytecode.Cell_ref
     | In_free (idx, boxed) ->
       emit em (Bytecode.Free idx);
       if boxed then emit em Bytecode.Cell_ref
     | In_global -> emit em (Bytecode.Global (ctx.lk.global_index x)));
    if tail then emit em Bytecode.Return
  | Ast.If (c, t, f) ->
    comp ctx em depth ~tail:false c;
    let jf = here em in
    emit em (Bytecode.Jump_if_false 0);
    comp ctx em depth ~tail t;
    if tail then begin
      patch em jf (here em);
      comp ctx em depth ~tail f
    end
    else begin
      let j = here em in
      emit em (Bytecode.Jump 0);
      patch em jf (here em);
      comp ctx em depth ~tail f;
      patch em j (here em)
    end
  | Ast.Set (x, e) ->
    comp ctx em depth ~tail:false e;
    (match resolve ctx x with
     | In_frame (slot, boxed) ->
       if not boxed then fail "internal: set! of unboxed local %s" x;
       emit em (Bytecode.Local slot);
       emit em Bytecode.Cell_set
     | In_free (idx, boxed) ->
       if not boxed then fail "internal: set! of unboxed free %s" x;
       emit em (Bytecode.Free idx);
       emit em Bytecode.Cell_set
     | In_global -> emit em (Bytecode.Set_global (ctx.lk.global_index x)));
    if tail then emit em Bytecode.Return
  | Ast.Lambda lam ->
    let code_id = comp_lambda ctx lam in
    emit em (Bytecode.Make_closure code_id);
    if tail then emit em Bytecode.Return
  | Ast.Seq es ->
    let rec loop = function
      | [] -> fail "internal: empty begin"
      | [ last ] -> comp ctx em depth ~tail last
      | e :: rest ->
        comp ctx em depth ~tail:false e;
        emit em Bytecode.Pop;
        loop rest
    in
    loop es
  | Ast.Let (bindings, body) ->
    let n = List.length bindings in
    let frame', _ =
      List.fold_left
        (fun (frame', d) (x, init) ->
          comp ctx em d ~tail:false init;
          let boxed = is_boxed ctx x in
          if boxed then emit em Bytecode.Make_cell;
          ((x, (d, boxed)) :: frame', d + 1))
        (ctx.frame, depth) bindings
    in
    let ctx' = { ctx with frame = frame' } in
    comp ctx' em (depth + n) ~tail body;
    if not tail then emit em (Bytecode.Slide n)
  | Ast.Call (f, args) -> (
    let global_head =
      match f with
      | Ast.Var name -> (
        match resolve ctx name with
        | In_global -> Some name
        | In_frame _ | In_free _ -> None)
      | _ -> None
    in
    let prim = Option.bind global_head Primitives.find in
    match prim, global_head, args with
    | Some pid, Some name, _ ->
      let spec = Primitives.spec pid in
      let n = List.length args in
      if n < spec.Primitives.arity
         || ((not spec.Primitives.variadic) && n > spec.Primitives.arity)
      then
        fail "%s: expected %s%d arguments, got %d" name
          (if spec.Primitives.variadic then "at least " else "")
          spec.Primitives.arity n;
      List.iteri (fun i a -> comp ctx em (depth + i) ~tail:false a) args;
      emit em (Bytecode.Prim (pid, n));
      if tail then emit em Bytecode.Return
    | None, Some "apply", f :: (_ :: _ as args) ->
      (* Direct apply: spread the final list argument at call time. *)
      comp ctx em depth ~tail:false f;
      List.iteri (fun i a -> comp ctx em (depth + 1 + i) ~tail:false a) args;
      let n = List.length args in
      emit em (if tail then Bytecode.Tail_apply n else Bytecode.Apply n)
    | _ ->
      comp ctx em depth ~tail:false f;
      List.iteri (fun i a -> comp ctx em (depth + 1 + i) ~tail:false a) args;
      let n = List.length args in
      emit em (if tail then Bytecode.Tail_call n else Bytecode.Call n))

and comp_lambda ctx ({ Ast.name; params; rest; body } as lam) =
  let all_params =
    params @ (match rest with
              | None -> []
              | Some r -> [ r ])
  in
  (match
     List.find_opt
       (fun p -> List.length (List.filter (String.equal p) all_params) > 1)
       all_params
   with
   | Some p -> fail "%s: duplicate parameter %s" name p
   | None -> ());
  let info = Queue.pop ctx.an.lambdas in
  assert (info.lam == lam);
  let captures, free =
    List.split
      (List.mapi
         (fun i x ->
           match resolve ctx x with
           | In_frame (slot, boxed) ->
             (Bytecode.Cap_local slot, (x, (i, boxed)))
           | In_free (idx, boxed) -> (Bytecode.Cap_free idx, (x, (i, boxed)))
           | In_global -> assert false)
         (List.rev info.caps))
  in
  let captures = Array.of_list captures in
  let nparams = List.length all_params in
  let frame = List.mapi (fun i x -> (x, (i, is_boxed ctx x))) all_params in
  let ctx' = { ctx with frame; free } in
  let em = new_emitter () in
  (* Assignment conversion: box mutable parameters on entry. *)
  List.iter
    (fun (x, (slot, boxed)) ->
      ignore x;
      if boxed then begin
        emit em (Bytecode.Local slot);
        emit em Bytecode.Make_cell;
        emit em (Bytecode.Set_local slot)
      end)
    frame;
  comp ctx' em (nparams + 2) ~tail:true body;
  let instrs, consts = finish em in
  ctx.lk.register_code ~name ~arity:(List.length params)
    ~has_rest:(rest <> None) ~captures ~instrs ~consts

let compile_toplevel lk form =
  let expr, store =
    match (form : Ast.toplevel) with
    | Ast.Define (x, e) -> (e, Some x)
    | Ast.Expr e -> (e, None)
  in
  let ctx = { lk; an = analyse expr; frame = []; free = [] } in
  let em = new_emitter () in
  (match store with
   | Some x ->
     comp ctx em 2 ~tail:false expr;
     emit em (Bytecode.Set_global (lk.global_index x));
     emit em Bytecode.Return
   | None -> comp ctx em 2 ~tail:true expr);
  let instrs, consts = finish em in
  let name =
    match store with
    | Some x -> "define " ^ x
    | None -> "toplevel"
  in
  lk.register_code ~name ~arity:0 ~has_rest:false ~captures:[||] ~instrs
    ~consts
