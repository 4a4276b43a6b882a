(* Register-file slots.  Slot 0 is the closure being executed; slot 1
   is the rest-argument accumulator; slots 2+ are primitive scratch. *)
let reg_closure = 0
let reg_rest = 1

(* Head room demanded by the per-call stack-limit check. *)
let stack_headroom = 256

type t = {
  heap : Heap.t;
  mem : Mem.t;
  stack_limit : int; (* Heap.stack_limit, immutable: cached for push *)
  ctx : Primitives.ctx;
  globals_base : int;
  globals_limit : int;
  mutable global_names : string array;
  global_index : (string, int) Hashtbl.t;
  mutable nglobals : int;
  mutable codes : Bytecode.code array;
  mutable ncodes : int;
  runtime_vec : int; (* static word address of the runtime state vector *)
  mutable sp : int;
  mutable fp : int;
  mutable pc : int;
  mutable cur : Bytecode.code;
  (* shadow control stack *)
  mutable cs_code : int array;
  mutable cs_pc : int array;
  mutable cs_fp : int array;
  mutable cs_len : int;
  (* Allocation-site ids ({!Memsim.Attr.intern_site}), cached per code
     id / primitive id so the steady state of site tagging is one
     array load; -1 = not yet interned.  Only consulted when the heap
     has an attribution table attached. *)
  mutable site_closure : int array;
  mutable site_cell : int array;
  mutable site_rest : int array;
  mutable site_prim : int array;
}

let halt_code =
  { Bytecode.id = -1;
    name = "halt";
    arity = 0;
    has_rest = false;
    kind = Bytecode.Primitive (-1)
  }

let create ~heap ~ctx ~globals_base ~globals_limit ~runtime_vec =
  let stack_base = Heap.stack_base heap in
  { heap;
    mem = Heap.mem heap;
    stack_limit = Heap.stack_limit heap;
    ctx;
    globals_base;
    globals_limit;
    global_names = Array.make 64 "";
    global_index = Hashtbl.create 256;
    nglobals = 0;
    codes = Array.make 64 halt_code;
    ncodes = 0;
    runtime_vec;
    sp = stack_base;
    fp = stack_base + 1;
    pc = 0;
    cur = halt_code;
    cs_code = Array.make 1024 0;
    cs_pc = Array.make 1024 0;
    cs_fp = Array.make 1024 0;
    cs_len = 0;
    site_closure = Array.make 64 (-1);
    site_cell = Array.make 64 (-1);
    site_rest = Array.make 64 (-1);
    site_prim = Array.make 64 (-1)
  }

let sp t = t.sp

let add_code t code =
  if code.Bytecode.id <> t.ncodes then
    invalid_arg "Vm.add_code: out-of-order code id";
  if t.ncodes = Array.length t.codes then begin
    let bigger = Array.make (2 * t.ncodes) halt_code in
    Array.blit t.codes 0 bigger 0 t.ncodes;
    t.codes <- bigger
  end;
  t.codes.(t.ncodes) <- code;
  t.ncodes <- t.ncodes + 1

let code_count t = t.ncodes

let globals_count t = t.nglobals

let define_global t name =
  match Hashtbl.find_opt t.global_index name with
  | Some i -> i
  | None ->
    let i = t.nglobals in
    if t.globals_base + i >= t.globals_limit then
      raise (Heap.Out_of_memory "global-cell region exhausted");
    if i = Array.length t.global_names then begin
      let bigger = Array.make (2 * i) "" in
      Array.blit t.global_names 0 bigger 0 i;
      t.global_names <- bigger
    end;
    t.global_names.(i) <- name;
    Hashtbl.replace t.global_index name i;
    t.nglobals <- i + 1;
    (* Load-time initialization of the fresh cell. *)
    Mem.write t.mem (t.globals_base + i) Value.undefined;
    i

let global_name t i = t.global_names.(i)
let write_global t i v = Mem.write t.mem (t.globals_base + i) v

(* --- Allocation-site tagging ------------------------------------------ *)

let grow_sites a n =
  let b = Array.make (max (2 * Array.length a) (n + 1)) (-1) in
  Array.blit a 0 b 0 (Array.length a);
  b

let code_label (code : Bytecode.code) =
  if String.length code.Bytecode.name = 0 then
    Printf.sprintf "lambda#%d" code.Bytecode.id
  else code.Bytecode.name

let note_closure_site t cid =
  match Heap.attr t.heap with
  | None -> ()
  | Some table ->
    if cid >= Array.length t.site_closure then
      t.site_closure <- grow_sites t.site_closure cid;
    let s = t.site_closure.(cid) in
    let s =
      if s >= 0 then s
      else begin
        let s =
          Memsim.Attr.intern_site table ("closure:" ^ code_label t.codes.(cid))
        in
        t.site_closure.(cid) <- s;
        s
      end
    in
    Heap.set_alloc_site t.heap s

let note_cell_site t =
  match Heap.attr t.heap with
  | None -> ()
  | Some table ->
    let cid = t.cur.Bytecode.id in
    if cid < 0 then Heap.set_alloc_site t.heap Memsim.Attr.runtime_site
    else begin
      if cid >= Array.length t.site_cell then
        t.site_cell <- grow_sites t.site_cell cid;
      let s = t.site_cell.(cid) in
      let s =
        if s >= 0 then s
        else begin
          let s =
            Memsim.Attr.intern_site table ("cell:" ^ code_label t.cur)
          in
          t.site_cell.(cid) <- s;
          s
        end
      in
      Heap.set_alloc_site t.heap s
    end

let note_rest_site t (code : Bytecode.code) =
  match Heap.attr t.heap with
  | None -> ()
  | Some table ->
    let cid = code.Bytecode.id in
    if cid >= Array.length t.site_rest then
      t.site_rest <- grow_sites t.site_rest cid;
    let s = t.site_rest.(cid) in
    let s =
      if s >= 0 then s
      else begin
        let s = Memsim.Attr.intern_site table ("rest:" ^ code_label code) in
        t.site_rest.(cid) <- s;
        s
      end
    in
    Heap.set_alloc_site t.heap s

let note_prim_site t pid =
  match Heap.attr t.heap with
  | None -> ()
  | Some table ->
    if pid >= Array.length t.site_prim then
      t.site_prim <- grow_sites t.site_prim pid;
    let s = t.site_prim.(pid) in
    let s =
      if s >= 0 then s
      else begin
        let s =
          Memsim.Attr.intern_site table
            ("prim:" ^ (Primitives.spec pid).Primitives.name)
        in
        t.site_prim.(pid) <- s;
        s
      end
    in
    Heap.set_alloc_site t.heap s

(* --- Stack operations ------------------------------------------------ *)

let[@inline] push t v =
  if t.sp >= t.stack_limit then Heap.error "stack overflow";
  Mem.write t.mem t.sp v;
  t.sp <- t.sp + 1

let[@inline] pop t =
  t.sp <- t.sp - 1;
  Mem.read t.mem t.sp

let shadow_push t =
  if t.cs_len = Array.length t.cs_code then begin
    let n = t.cs_len in
    let grow a =
      let b = Array.make (2 * n) 0 in
      Array.blit a 0 b 0 n;
      b
    in
    t.cs_code <- grow t.cs_code;
    t.cs_pc <- grow t.cs_pc;
    t.cs_fp <- grow t.cs_fp
  end;
  t.cs_code.(t.cs_len) <- t.cur.Bytecode.id;
  t.cs_pc.(t.cs_len) <- t.pc;
  t.cs_fp.(t.cs_len) <- t.fp;
  t.cs_len <- t.cs_len + 1

(* --- Calls ------------------------------------------------------------ *)

let check_arity t code n =
  let arity = code.Bytecode.arity in
  if code.Bytecode.has_rest then begin
    if n < arity then
      Heap.error "%s: expected at least %d arguments, got %d"
        code.Bytecode.name arity n
  end
  else if n <> arity then
    Heap.error "%s: expected %d arguments, got %d" code.Bytecode.name arity n;
  ignore t

(* Cons the excess arguments of a rest-taking procedure into a list.
   Arguments live at [base .. base+n-1] and are below [sp], so they
   survive the collection that [ensure] may trigger. *)
let build_rest t base arity n =
  Heap.ensure t.heap (3 * (n - arity));
  t.ctx.Primitives.reg.(reg_rest) <- Value.nil;
  for i = n - 1 downto arity do
    Heap.charge_mutator t.heap 5;
    t.ctx.Primitives.reg.(reg_rest) <-
      Heap.cons t.heap (Mem.read t.mem (base + i)) t.ctx.Primitives.reg.(reg_rest)
  done;
  t.sp <- base + arity;
  push t t.ctx.Primitives.reg.(reg_rest);
  t.ctx.Primitives.reg.(reg_rest) <- Value.unspecified

(* The per-call stack-limit check: one read of the runtime state
   vector, the busiest static block in the system (§7). *)
let runtime_check t =
  let _limit_word = Mem.read t.mem t.runtime_vec in
  if t.sp + stack_headroom >= t.stack_limit then Heap.error "stack overflow"

let exec_primitive t pid base n =
  let spec = Primitives.spec pid in
  if n < spec.Primitives.arity
     || ((not spec.Primitives.variadic) && n > spec.Primitives.arity)
  then
    Heap.error "%s: expected %s%d arguments, got %d" spec.Primitives.name
      (if spec.Primitives.variadic then "at least " else "")
      spec.Primitives.arity n;
  (* Dispatch overhead plus the primitive's own base cost. *)
  Heap.charge_mutator t.heap (10 + spec.Primitives.cost);
  note_prim_site t pid;
  spec.Primitives.fn t.ctx ~base ~nargs:n

(* Spread the argument list on top of the stack into individual
   stack slots; returns how many elements were pushed.  The list is
   held in a register so it survives nothing here (no allocation),
   but the register keeps the invariant that live values are rooted. *)
let spread_rest_list t =
  let lst = pop t in
  t.ctx.Primitives.reg.(reg_rest) <- lst;
  let rec loop n =
    let l = t.ctx.Primitives.reg.(reg_rest) in
    if l = Value.nil then n
    else begin
      Heap.charge_mutator t.heap 4;
      push t (Heap.car t.heap l);
      t.ctx.Primitives.reg.(reg_rest) <- Heap.cdr t.heap l;
      loop (n + 1)
    end
  in
  let n = loop 0 in
  t.ctx.Primitives.reg.(reg_rest) <- Value.unspecified;
  n

exception Halt of Value.t

(* Return [result] to the caller frame recorded on the shadow stack. *)
let do_return_value t result =
  if t.cs_len = 0 then raise (Halt result);
  t.cs_len <- t.cs_len - 1;
  let i = t.cs_len in
  let caller_fp = t.cs_fp.(i) in
  t.sp <- t.fp - 1;
  t.fp <- caller_fp;
  t.cur <- t.codes.(t.cs_code.(i));
  t.pc <- t.cs_pc.(i);
  push t result;
  (* Restore the caller's closure register from its frame slot (the
     saved-register reload of a real calling convention). *)
  t.ctx.Primitives.reg.(reg_closure) <- Mem.peek t.mem (caller_fp - 1)

let get_callee t f_slot =
  let f = Mem.read t.mem f_slot in
  if not (Heap.is_closure t.heap f) then
    Heap.error "application of a non-procedure: %s"
      (Printer.to_string t.heap ~quote:true f);
  t.codes.(Heap.closure_code t.heap f)

(* Enter a bytecode procedure whose closure sits at [new_fp - 1] with
   [n] arguments at [new_fp ..].  [saved_fp]/[saved_pc] are the values
   spilled into the frame's control words. *)
let enter_bytecode t code new_fp n ~saved_fp ~saved_pc =
  check_arity t code n;
  if code.Bytecode.has_rest then begin
    note_rest_site t code;
    build_rest t new_fp code.Bytecode.arity n
  end;
  runtime_check t;
  push t (Value.fixnum saved_fp);
  push t (Value.fixnum saved_pc);
  t.fp <- new_fp;
  t.cur <- code;
  t.pc <- 0;
  t.ctx.Primitives.reg.(reg_closure) <- Mem.peek t.mem (new_fp - 1)

let do_call t n =
  let f_slot = t.sp - n - 1 in
  let code = get_callee t f_slot in
  match code.Bytecode.kind with
  | Bytecode.Primitive pid ->
    let result = exec_primitive t pid (f_slot + 1) n in
    t.sp <- f_slot;
    push t result
  | Bytecode.Bytecode _ ->
    let saved_fp = t.fp in
    let saved_pc = t.pc in
    shadow_push t;
    enter_bytecode t code (f_slot + 1) n ~saved_fp ~saved_pc

let do_tail_call t n =
  let f_slot = t.sp - n - 1 in
  let code = get_callee t f_slot in
  (* Move the callee and arguments down over the current frame. *)
  let dst = t.fp - 1 in
  if dst <> f_slot then begin
    for i = 0 to n do
      Heap.charge_mutator t.heap 2;
      Mem.write t.mem (dst + i) (Mem.read t.mem (f_slot + i))
    done
  end;
  t.sp <- dst + n + 1;
  match code.Bytecode.kind with
  | Bytecode.Primitive pid ->
    let result = exec_primitive t pid (dst + 1) n in
    do_return_value t result
  | Bytecode.Bytecode _ ->
    let saved_fp, saved_pc =
      if t.cs_len = 0 then (0, 0)
      else (t.cs_fp.(t.cs_len - 1), t.cs_pc.(t.cs_len - 1))
    in
    enter_bytecode t code (t.fp) n ~saved_fp ~saved_pc

(* --- The dispatch loop ------------------------------------------------ *)

let current_instrs t =
  match t.cur.Bytecode.kind with
  | Bytecode.Bytecode b -> b
  | Bytecode.Primitive _ -> assert false

let step t =
  let body = current_instrs t in
  let i = body.Bytecode.instrs.(t.pc) in
  t.pc <- t.pc + 1;
  Heap.charge_mutator t.heap (Bytecode.instr_cost i);
  match i with
  | Bytecode.Imm v -> push t v
  | Bytecode.Const k -> push t (Mem.read t.mem (body.Bytecode.const_base + k))
  | Bytecode.Local k -> push t (Mem.read t.mem (t.fp + k))
  | Bytecode.Set_local k ->
    let v = pop t in
    Mem.write t.mem (t.fp + k) v
  | Bytecode.Free k ->
    let clos = t.ctx.Primitives.reg.(reg_closure) in
    push t (Heap.load_field t.heap (Value.pointer_val clos) (1 + k))
  | Bytecode.Global g ->
    let v = Mem.read t.mem (t.globals_base + g) in
    if v = Value.undefined then
      Heap.error "unbound variable: %s" (global_name t g);
    push t v
  | Bytecode.Set_global g ->
    let v = pop t in
    Mem.write t.mem (t.globals_base + g) v;
    push t Value.unspecified
  | Bytecode.Make_closure cid ->
    let code = t.codes.(cid) in
    let captures =
      match code.Bytecode.kind with
      | Bytecode.Bytecode b -> b.Bytecode.captures
      | Bytecode.Primitive _ -> assert false
    in
    let nfree = Array.length captures in
    Heap.charge_mutator t.heap (2 * nfree);
    note_closure_site t cid;
    Heap.ensure t.heap (Value.object_words (Value.header Value.Closure ~len:(1 + nfree)));
    let clos = Heap.make_closure t.heap ~code:cid ~nfree in
    let addr = Value.pointer_val clos in
    Array.iteri
      (fun i cap ->
        let v =
          match cap with
          | Bytecode.Cap_local k -> Mem.read t.mem (t.fp + k)
          | Bytecode.Cap_free k ->
            Heap.load_field t.heap
              (Value.pointer_val t.ctx.Primitives.reg.(reg_closure))
              (1 + k)
        in
        Heap.init_field t.heap addr (1 + i) v)
      captures;
    push t clos
  | Bytecode.Call n -> do_call t n
  | Bytecode.Tail_call n -> do_tail_call t n
  | Bytecode.Return ->
    let result = pop t in
    (* The decorative control-word reloads of a real return sequence. *)
    if t.cs_len > 0 then begin
      let cw = t.fp + Bytecode.nparams t.cur in
      let _saved_fp = Mem.read t.mem cw in
      let _saved_pc = Mem.read t.mem (cw + 1) in
      ()
    end;
    do_return_value t result
  | Bytecode.Jump target -> t.pc <- target
  | Bytecode.Jump_if_false target ->
    let v = pop t in
    if v = Value.false_v then t.pc <- target
  | Bytecode.Pop -> t.sp <- t.sp - 1
  | Bytecode.Slide n ->
    let v = pop t in
    t.sp <- t.sp - n;
    push t v
  | Bytecode.Make_cell ->
    note_cell_site t;
    Heap.ensure t.heap (Value.object_words (Value.header Value.Cell ~len:1));
    let v = pop t in
    push t (Heap.make_cell t.heap v)
  | Bytecode.Cell_ref ->
    let c = pop t in
    let v = Heap.cell_ref t.heap c in
    if v = Value.undefined then
      Heap.error "letrec variable used before initialization";
    push t v
  | Bytecode.Cell_set ->
    let c = pop t in
    let v = pop t in
    Heap.cell_set t.heap c v;
    push t Value.unspecified
  | Bytecode.Prim (pid, n) ->
    let base = t.sp - n in
    let result = exec_primitive t pid base n in
    t.sp <- base;
    push t result
  | Bytecode.Apply n ->
    let spread = spread_rest_list t in
    do_call t (n - 1 + spread)
  | Bytecode.Tail_apply n ->
    let spread = spread_rest_list t in
    do_tail_call t (n - 1 + spread)

let execute t code_id =
  let code = t.codes.(code_id) in
  if code.Bytecode.arity <> 0 || code.Bytecode.has_rest then
    invalid_arg "Vm.execute: not a toplevel thunk";
  (* Fresh stack: a dummy closure slot, no arguments, zeroed control
     words. *)
  t.sp <- Heap.stack_base t.heap;
  t.cs_len <- 0;
  push t Value.unspecified;
  t.fp <- t.sp;
  push t (Value.fixnum 0);
  push t (Value.fixnum 0);
  t.cur <- code;
  t.pc <- 0;
  t.ctx.Primitives.reg.(reg_closure) <- Value.unspecified;
  let rec loop () =
    step t;
    loop ()
  in
  try loop () with
  | Halt v -> v
