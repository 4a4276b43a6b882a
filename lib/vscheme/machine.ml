type gc_spec =
  | No_gc
  | Cheney of { semispace_bytes : int }
  | Generational of { nursery_bytes : int; old_bytes : int }
  | Mark_sweep of { nursery_bytes : int; old_bytes : int }

type config = {
  sink : Memsim.Trace.sink;
  gc : gc_spec;
  heap_bytes : int;
  static_bytes : int;
  stack_bytes : int;
  max_globals : int;
  load_prelude : bool;
  seed : int;
  pathological_layout : bool;
  telemetry : Obs.Events.timeline option;
  record : Memsim.Recording.t option;
  attr : Memsim.Attr.table option;
}

let default_config =
  { sink = Memsim.Trace.null;
    gc = No_gc;
    heap_bytes = 64 * 1024 * 1024;
    static_bytes = 2 * 1024 * 1024;
    stack_bytes = 256 * 1024;
    max_globals = 4096;
    load_prelude = true;
    seed = 0x5eed;
    pathological_layout = false;
    telemetry = None;
    record = None;
    attr = None
  }

type collector =
  | No_collector
  | Cheney_collector of Gc_cheney.t
  | Generational_collector of Gc_generational.t
  | Mark_sweep_collector of Gc_marksweep.t

type t = {
  cfg : config;
  mem : Mem.t;
  heap : Heap.t;
  collector : collector;
  ctx : Primitives.ctx;
  vm : Vm.t;
  linkage : Compiler.linkage;
}

let words_of_bytes b = (b + Memsim.Trace.word_bytes - 1) / Memsim.Trace.word_bytes

let dynamic_words cfg =
  match cfg.gc with
  | No_gc -> words_of_bytes cfg.heap_bytes
  | Cheney { semispace_bytes } ->
    Gc_cheney.required_dynamic_words
      ~semispace_words:(words_of_bytes semispace_bytes)
  | Generational { nursery_bytes; old_bytes } ->
    Gc_generational.required_dynamic_words
      (Gc_generational.config
         ~nursery_words:(words_of_bytes nursery_bytes)
         ~old_words:(words_of_bytes old_bytes))
  | Mark_sweep { nursery_bytes; old_bytes } ->
    Gc_marksweep.required_dynamic_words
      (Gc_marksweep.config
         ~nursery_words:(words_of_bytes nursery_bytes)
         ~old_words:(words_of_bytes old_bytes))

(* Quoted literals are shared within a machine: a datum equal (by
   [compare]) to one interned before is the same static object, and
   only its first occurrence is built.  Every datum node gets an id,
   the same exactly when the nodes are equal, by hash-consing the
   node's shape over its children's ids, so finding a list costs one
   probe per cell with a key of two ids, however long the list.  The
   table lives in the machine and dies with it. *)
type shape =
  | Leaf of Sexp.Datum.t  (* any datum but a pair or a vector *)
  | Pair of int * int
  | Vector of int array

type constants = {
  ids : (shape, int) Hashtbl.t;
  mutable shapes : shape array;  (* indexed by id *)
  built : (int, Value.t) Hashtbl.t;  (* ids interned so far *)
}

let new_constants () =
  { ids = Hashtbl.create 256;
    shapes = Array.make 256 (Leaf Sexp.Datum.Nil);
    built = Hashtbl.create 256
  }

let rec datum_id c (d : Sexp.Datum.t) =
  let shape =
    match d with
    | Sexp.Datum.Cons (a, rest) ->
      let a = datum_id c a in
      Pair (a, datum_id c rest)
    | Sexp.Datum.Vec elems -> Vector (Array.map (datum_id c) elems)
    | Sexp.Datum.Nil | Sexp.Datum.Bool _ | Sexp.Datum.Int _ | Sexp.Datum.Real _
    | Sexp.Datum.Char _ | Sexp.Datum.Str _ | Sexp.Datum.Sym _ ->
      Leaf d
  in
  match Hashtbl.find_opt c.ids shape with
  | Some id -> id
  | None ->
    let id = Hashtbl.length c.ids in
    if id = Array.length c.shapes then begin
      let bigger = Array.make (2 * id) shape in
      Array.blit c.shapes 0 bigger 0 id;
      c.shapes <- bigger
    end;
    c.shapes.(id) <- shape;
    Hashtbl.add c.ids shape id;
    id

(* Build a quoted literal in the static area.  Static constants may
   reference only other static data, so collectors never scan them.
   A node already built is reused whole, so its parts are neither
   visited nor built again; otherwise the parts are built first, car
   before cdr and elements in order.  [id] is [d]'s id, or -1 when it
   is not known yet. *)
let rec intern_datum heap c (d : Sexp.Datum.t) id : Value.t =
  match d with
  | Sexp.Datum.Nil -> Value.nil
  | Sexp.Datum.Bool b -> Value.bool b
  | Sexp.Datum.Char ch -> Value.char ch
  | Sexp.Datum.Int i ->
    if i < Value.min_fixnum || i > Value.max_fixnum then
      raise
        (Compiler.Compile_error
           (Printf.sprintf "integer literal %d out of fixnum range" i));
    Value.fixnum i
  | Sexp.Datum.Sym s -> Heap.intern heap s
  | Sexp.Datum.Real _ | Sexp.Datum.Str _ | Sexp.Datum.Cons _ | Sexp.Datum.Vec _
    -> (
    let id = if id >= 0 then id else datum_id c d in
    match Hashtbl.find_opt c.built id with
    | Some v -> v
    | None ->
      let v =
        match d, c.shapes.(id) with
        | Sexp.Datum.Real f, _ -> Heap.flonum ~area:Heap.Static heap f
        | Sexp.Datum.Str s, _ -> Heap.make_string ~area:Heap.Static heap s
        | Sexp.Datum.Cons (a, rest), Pair (ia, irest) ->
          let a = intern_datum heap c a ia in
          let rest = intern_datum heap c rest irest in
          Heap.cons ~area:Heap.Static heap a rest
        | Sexp.Datum.Vec elems, Vector ids ->
          let vals =
            Array.mapi (fun i e -> intern_datum heap c e ids.(i)) elems
          in
          let v =
            Heap.make_vector ~area:Heap.Static heap (Array.length vals)
              (Value.fixnum 0)
          in
          Array.iteri (fun i x -> Heap.vector_set heap v i x) vals;
          v
        | _ -> assert false
      in
      Hashtbl.replace c.built id v;
      v)

let register_code heap vm ~name ~arity ~has_rest ~captures ~instrs ~consts =
  let id = Vm.code_count vm in
  let const_base =
    if Array.length consts = 0 then 0
    else begin
      let addr =
        Heap.alloc heap Heap.Static Value.Vector ~len:(Array.length consts)
      in
      Array.iteri (fun i v -> Heap.init_field heap addr i v) consts;
      addr + 1
    end
  in
  let body =
    { Bytecode.instrs; captures; const_base; nconsts = Array.length consts }
  in
  Vm.add_code vm
    { Bytecode.id; name; arity; has_rest; kind = Bytecode.Bytecode body };
  id

(* Bind every primitive to a global holding a static closure over a
   [Primitive] code object, so primitives are first-class: (map car l)
   works even though direct calls compile to Prim instructions. *)
let install_primitive_globals heap vm =
  for pid = 0 to Primitives.count - 1 do
    let spec = Primitives.spec pid in
    let id = Vm.code_count vm in
    Vm.add_code vm
      { Bytecode.id;
        name = spec.Primitives.name;
        arity = spec.Primitives.arity;
        has_rest = spec.Primitives.variadic;
        kind = Bytecode.Primitive pid
      };
    let addr = Heap.alloc heap Heap.Static Value.Closure ~len:1 in
    Heap.init_field heap addr 0 (Value.fixnum id);
    let g = Vm.define_global vm spec.Primitives.name in
    Vm.write_global vm g (Value.pointer addr)
  done

let stack_base_bytes cfg =
  words_of_bytes cfg.static_bytes * Memsim.Trace.word_bytes

let dynamic_base_bytes cfg =
  (words_of_bytes cfg.static_bytes + words_of_bytes cfg.stack_bytes)
  * Memsim.Trace.word_bytes

let dynamic_limit_bytes cfg =
  dynamic_base_bytes cfg + (dynamic_words cfg * Memsim.Trace.word_bytes)

let heap t = t.heap
let collector t = t.collector
let mem t = t.mem

let eval_string t src =
  let data = Sexp.Parser.parse_all src in
  let forms = Expander.expand_program data in
  List.fold_left
    (fun _last form ->
      let code_id = Compiler.compile_toplevel t.linkage form in
      Vm.execute t.vm code_id)
    Value.unspecified forms

let value_to_string t v =
  Mem.with_untraced t.mem (fun () -> Printer.to_string t.heap ~quote:true v)

let output t = Buffer.contents t.ctx.Primitives.out
let clear_output t = Buffer.clear t.ctx.Primitives.out

type run_stats = {
  mutator_insns : int;
  collector_insns : int;
  collections : int;
  bytes_allocated : int;
}

let stats t =
  { mutator_insns = Heap.mutator_insns t.heap;
    collector_insns = Heap.collector_insns t.heap;
    collections = Heap.collections t.heap;
    bytes_allocated = Heap.bytes_allocated t.heap
  }

let create cfg =
  let static_words = words_of_bytes cfg.static_bytes in
  let stack_words = words_of_bytes cfg.stack_bytes in
  let total_words = static_words + stack_words + dynamic_words cfg in
  let mem = Mem.create ~sink:cfg.sink ~words:total_words in
  (* Direct recording starts before any heap structure is built, so
     the fast path captures exactly the stream the sink would see. *)
  Option.iter (Mem.record_into mem) cfg.record;
  let heap = Heap.create ~mem ~static_words ~stack_words in
  Heap.set_telemetry heap cfg.telemetry;
  (* Attach before the first traced access (the static padding below)
     so the table's first region epoch covers position 0. *)
  Option.iter (Heap.attach_attr heap) cfg.attr;
  let ctx =
    { Primitives.heap;
      out = Buffer.create 1024;
      rng = cfg.seed;
      gensyms = 0;
      reg = Array.make 8 Value.unspecified
    }
  in
  (* Static runtime structures: the runtime state vector (read on
     every call; the system's busiest block) and the global-cell
     region.  A padding block first gives them the "essentially
     random" placement of real systems (§7): without it the runtime
     vector would sit at address 0 and alias the stack base in every
     power-of-two cache, manufacturing the worst-case collision the
     paper observes to be rare. *)
  if not cfg.pathological_layout then begin
    let pad_words = 293 * 1024 / Memsim.Trace.word_bytes in
    ignore (Heap.alloc heap Heap.Static Value.Vector ~len:(pad_words - 1))
  end;
  let runtime_vec = Heap.alloc heap Heap.Static Value.Vector ~len:7 in
  for i = 0 to 6 do
    Heap.init_field heap runtime_vec i (Value.fixnum 0)
  done;
  let globals_obj =
    Heap.alloc heap Heap.Static Value.Vector ~len:cfg.max_globals
  in
  let globals_base = globals_obj + 1 in
  let vm =
    Vm.create ~heap ~ctx ~globals_base
      ~globals_limit:(globals_base + cfg.max_globals) ~runtime_vec
  in
  Heap.add_roots heap
    (Heap.Range (fun () -> (Heap.stack_base heap, Vm.sp vm)));
  Heap.add_roots heap
    (Heap.Range (fun () -> (globals_base, globals_base + Vm.globals_count vm)));
  Heap.add_roots heap (Heap.Registers (ctx.Primitives.reg, fun () -> 8));
  let collector =
    match cfg.gc with
    | No_gc -> No_collector
    | Cheney { semispace_bytes } ->
      Cheney_collector
        (Gc_cheney.install heap
           ~semispace_words:(words_of_bytes semispace_bytes))
    | Generational { nursery_bytes; old_bytes } ->
      Generational_collector
        (Gc_generational.install heap
           (Gc_generational.config
              ~nursery_words:(words_of_bytes nursery_bytes)
              ~old_words:(words_of_bytes old_bytes)))
    | Mark_sweep { nursery_bytes; old_bytes } ->
      Mark_sweep_collector
        (Gc_marksweep.install heap
           (Gc_marksweep.config
              ~nursery_words:(words_of_bytes nursery_bytes)
              ~old_words:(words_of_bytes old_bytes)))
  in
  let constants = new_constants () in
  let linkage =
    { Compiler.intern_constant = (fun d -> intern_datum heap constants d (-1));
      global_index = (fun name -> Vm.define_global vm name);
      register_code = register_code heap vm
    }
  in
  (match cfg.telemetry with
   | None -> ()
   | Some tl ->
     Obs.Events.instant tl ~cat:"machine" "machine.create"
       ~args:
         [ ("collector", Obs.Events.S (Heap.collector_name heap));
           ("dynamic_bytes",
            Obs.Events.I (dynamic_words cfg * Memsim.Trace.word_bytes));
           ("static_bytes", Obs.Events.I cfg.static_bytes);
           ("stack_bytes", Obs.Events.I cfg.stack_bytes)
         ]);
  let t = { cfg; mem; heap; collector; ctx; vm; linkage } in
  install_primitive_globals heap vm;
  if cfg.load_prelude then begin
    (match cfg.telemetry with
     | None -> ()
     | Some tl -> Obs.Events.span_begin tl ~cat:"phase" "phase.prelude");
    ignore (eval_string t Prelude.source);
    match cfg.telemetry with
    | None -> ()
    | Some tl -> Obs.Events.span_end tl ~cat:"phase" "phase.prelude"
  end;
  t
