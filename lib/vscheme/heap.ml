exception Out_of_memory of string
exception Runtime_error of string

let error fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

type area =
  | Static
  | Dynamic

type roots =
  | Range of (unit -> int * int)
  | Registers of Value.t array * (unit -> int)

type t = {
  mem : Mem.t;
  static_base : int;
  static_limit : int;
  mutable static_top : int;
  stack_base : int;
  stack_limit : int;
  dynamic_base : int;
  dynamic_limit : int;
  mutable alloc_ptr : int;
  mutable alloc_limit : int;
  mutable words_allocated : int;
  mutable mutator_insns : int;
  mutable collector_insns : int;
  mutable collections : int;
  mutable roots : roots list;
  mutable collect : t -> requested_words:int -> unit;
  mutable collector_name : string;
  mutable barrier : (field_addr:int -> value:Value.t -> unit) option;
  mutable telemetry : Obs.Events.timeline option;
  mutable attr : Memsim.Attr.table option;
  mutable alloc_site : int;
  symbols : (string, Value.t) Hashtbl.t;
}

let no_collector t ~requested_words =
  ignore t;
  raise
    (Out_of_memory
       (Printf.sprintf
          "dynamic area exhausted (no collector installed; %d words requested)"
          requested_words))

let create ~mem ~static_words ~stack_words =
  let total = Mem.size_words mem in
  if static_words + stack_words >= total then
    invalid_arg "Heap.create: no room left for the dynamic area";
  let dynamic_base = static_words + stack_words in
  { mem;
    static_base = 0;
    static_limit = static_words;
    static_top = 0;
    stack_base = static_words;
    stack_limit = static_words + stack_words;
    dynamic_base;
    dynamic_limit = total;
    alloc_ptr = dynamic_base;
    alloc_limit = total;
    words_allocated = 0;
    mutator_insns = 0;
    collector_insns = 0;
    collections = 0;
    roots = [];
    collect = no_collector;
    collector_name = "none";
    barrier = None;
    telemetry = None;
    attr = None;
    alloc_site = Memsim.Attr.runtime_site;
    symbols = Hashtbl.create 512
  }

let mem t = t.mem
let static_base t = t.static_base
let static_top t = t.static_top
let static_limit t = t.static_limit
let stack_base t = t.stack_base
let stack_limit t = t.stack_limit
let dynamic_base t = t.dynamic_base
let dynamic_limit t = t.dynamic_limit
let alloc_ptr t = t.alloc_ptr
let alloc_limit t = t.alloc_limit
let is_dynamic t a = a >= t.dynamic_base && a < t.dynamic_limit

let words_allocated t = t.words_allocated
let bytes_allocated t = t.words_allocated * Memsim.Trace.word_bytes

let mutator_insns t = t.mutator_insns
let[@inline] charge_mutator t n = t.mutator_insns <- t.mutator_insns + n
let collector_insns t = t.collector_insns
let charge_collector t n = t.collector_insns <- t.collector_insns + n
let collections t = t.collections

let logical_time t = t.mutator_insns + t.collector_insns
let telemetry t = t.telemetry

let set_telemetry t tl =
  t.telemetry <- tl;
  match tl with
  | None -> ()
  | Some timeline ->
    Obs.Events.set_clock timeline (fun () -> logical_time t)

(* --- Attribution --- *)

(* The side table speaks byte addresses and recording positions; the
   heap speaks word addresses.  [publish_regions] is the one
   conversion point.  Word bounds [to_lo, to_hi) / [from_lo, from_hi)
   describe the copying collector's semispaces; without a collector
   the allocation window plays tospace and fromspace is empty. *)
let publish_regions t ~to_lo ~to_hi ~from_lo ~from_hi =
  match t.attr with
  | None -> ()
  | Some table ->
    let b = Memsim.Trace.word_bytes in
    Memsim.Attr.publish_map table
      ~pos:(Mem.recorded_position t.mem)
      ~stack_lo:(t.stack_base * b) ~dynamic_lo:(t.dynamic_base * b)
      ~to_lo:(to_lo * b) ~to_hi:(to_hi * b) ~from_lo:(from_lo * b)
      ~from_hi:(from_hi * b)

let attach_attr t table =
  t.attr <- Some table;
  publish_regions t ~to_lo:t.alloc_ptr ~to_hi:t.alloc_limit ~from_lo:0
    ~from_hi:0

let attr t = t.attr

let set_alloc_site t site = t.alloc_site <- site

let alloc_site t = t.alloc_site

(* --- Allocation --- *)

let alloc_static t words =
  let addr = t.static_top in
  if addr + words > t.static_limit then
    raise (Out_of_memory "static area exhausted");
  t.static_top <- addr + words;
  addr

let ensure t words =
  if t.alloc_ptr + words > t.alloc_limit then begin
    Mem.set_phase t.mem Memsim.Trace.Collector;
    t.collect t ~requested_words:words;
    Mem.set_phase t.mem Memsim.Trace.Mutator;
    if t.alloc_ptr + words > t.alloc_limit then
      raise
        (Out_of_memory
           (Printf.sprintf "collector could not free %d words" words))
  end

let alloc_dynamic t words =
  ensure t words;
  let addr = t.alloc_ptr in
  t.alloc_ptr <- addr + words;
  t.words_allocated <- t.words_allocated + words;
  addr

let alloc t area tag ~len =
  let words = Value.object_words (Value.header tag ~len) in
  let addr =
    match area with
    | Static -> alloc_static t words
    | Dynamic -> alloc_dynamic t words
  in
  (* Stamp the site run after any collection [alloc_dynamic] ran, so
     the position is exactly the header store about to be emitted. *)
  (match t.attr with
   | None -> ()
   | Some table ->
     Memsim.Attr.note_site table
       ~pos:(Mem.recorded_position t.mem)
       t.alloc_site);
  Mem.write_alloc t.mem addr (Value.header tag ~len);
  addr

(* --- Raw object access --- *)

let load_header t addr = Mem.read t.mem addr
let peek_header t addr = Mem.peek t.mem addr
let[@inline] load_field t addr i = Mem.read t.mem (addr + 1 + i)

let[@inline] store_field t addr i v =
  let field_addr = addr + 1 + i in
  (match t.barrier with
   | None -> ()
   | Some barrier -> barrier ~field_addr ~value:v);
  Mem.write t.mem field_addr v

let init_field t addr i v = Mem.write_alloc t.mem (addr + 1 + i) v

(* --- Type checks --- *)

let has_tag t v tag =
  Value.is_pointer v
  && Value.header_tag (peek_header t (Value.pointer_val v)) = tag

(* The check is inlined at every accessor; the message is built out of
   line, only when it fails. *)
let type_error t v tag who =
  if not (Value.is_pointer v) then
    error "%s: expected %s, got %a" who (Value.tag_to_string tag) Value.pp v;
  let actual = Value.header_tag (peek_header t (Value.pointer_val v)) in
  error "%s: expected %s, got %s" who (Value.tag_to_string tag)
    (Value.tag_to_string actual)

let[@inline] type_check t v tag who =
  let addr = Value.pointer_val v in
  if Value.is_pointer v && Value.header_tag (peek_header t addr) = tag then addr
  else type_error t v tag who

(* --- Pairs --- *)

let cons ?(area = Dynamic) t a d =
  let addr = alloc t area Value.Pair ~len:2 in
  init_field t addr 0 a;
  init_field t addr 1 d;
  Value.pointer addr

let car t v = load_field t (type_check t v Value.Pair "car") 0
let cdr t v = load_field t (type_check t v Value.Pair "cdr") 1
let set_car t v x = store_field t (type_check t v Value.Pair "set-car!") 0 x
let set_cdr t v x = store_field t (type_check t v Value.Pair "set-cdr!") 1 x

(* --- Vectors --- *)

let make_vector ?(area = Dynamic) t n fill =
  if n < 0 then error "make-vector: negative length %d" n;
  let addr = alloc t area Value.Vector ~len:n in
  for i = 0 to n - 1 do
    init_field t addr i fill
  done;
  Value.pointer addr

let vector_length t v =
  let addr = type_check t v Value.Vector "vector-length" in
  Value.header_len (load_header t addr)

let vector_ref t v i =
  let addr = type_check t v Value.Vector "vector-ref" in
  let len = Value.header_len (load_header t addr) in
  if i < 0 || i >= len then error "vector-ref: index %d out of range %d" i len;
  load_field t addr i

let vector_set t v i x =
  let addr = type_check t v Value.Vector "vector-set!" in
  let len = Value.header_len (load_header t addr) in
  if i < 0 || i >= len then error "vector-set!: index %d out of range %d" i len;
  store_field t addr i x

(* --- Closures --- *)

let make_closure t ~code ~nfree =
  let addr = alloc t Dynamic Value.Closure ~len:(1 + nfree) in
  init_field t addr 0 (Value.fixnum code);
  for i = 1 to nfree do
    init_field t addr i Value.undefined
  done;
  Value.pointer addr

let closure_code t v =
  let addr = type_check t v Value.Closure "closure-code" in
  Value.fixnum_val (load_field t addr 0)

let is_closure t v = has_tag t v Value.Closure

(* --- Cells (assignment-converted variables) --- *)

let make_cell ?(area = Dynamic) t v =
  let addr = alloc t area Value.Cell ~len:1 in
  init_field t addr 0 v;
  Value.pointer addr

let cell_ref t v = load_field t (type_check t v Value.Cell "cell-ref") 0
let cell_set t v x = store_field t (type_check t v Value.Cell "cell-set!") 0 x

(* --- Flonums --- *)

let flonum ?(area = Dynamic) t f =
  let addr = alloc t area Value.Flonum ~len:2 in
  let bits = Int64.bits_of_float f in
  init_field t addr 0 (Int64.to_int (Int64.logand bits 0xffffffffL));
  init_field t addr 1 (Int64.to_int (Int64.shift_right_logical bits 32));
  Value.pointer addr

let flonum_val t v =
  let addr = type_check t v Value.Flonum "flonum-value" in
  let lo = load_field t addr 0 in
  let hi = load_field t addr 1 in
  Int64.float_of_bits
    (Int64.logor
       (Int64.of_int (lo land 0xffffffff))
       (Int64.shift_left (Int64.of_int hi) 32))

(* --- Strings ---
   Layout: payload word 0 holds the character count; the remaining
   payload words pack four bytes each. *)

let string_data_words n = (n + 3) / 4

let make_string ?(area = Dynamic) t s =
  let n = String.length s in
  let addr = alloc t area Value.String ~len:(1 + string_data_words n) in
  init_field t addr 0 n;
  for w = 0 to string_data_words n - 1 do
    let word = ref 0 in
    for b = 0 to 3 do
      let i = (w * 4) + b in
      if i < n then word := !word lor (Char.code s.[i] lsl (8 * b))
    done;
    init_field t addr (1 + w) !word
  done;
  Value.pointer addr

let string_length t v =
  let addr = type_check t v Value.String "string-length" in
  load_field t addr 0

let string_ref t v i =
  let addr = type_check t v Value.String "string-ref" in
  let n = load_field t addr 0 in
  if i < 0 || i >= n then error "string-ref: index %d out of range %d" i n;
  let word = load_field t addr (1 + (i / 4)) in
  Char.chr ((word lsr (8 * (i mod 4))) land 0xff)

let string_val t v =
  let addr = type_check t v Value.String "string-value" in
  let n = load_field t addr 0 in
  String.init n (fun i ->
      let word = load_field t addr (1 + (i / 4)) in
      Char.chr ((word lsr (8 * (i mod 4))) land 0xff))

(* --- Symbols --- *)

let intern t name =
  match Hashtbl.find_opt t.symbols name with
  | Some v -> v
  | None ->
    let str = make_string ~area:Static t name in
    let addr = alloc t Static Value.Symbol ~len:1 in
    init_field t addr 0 str;
    let v = Value.pointer addr in
    Hashtbl.add t.symbols name v;
    v

let find_symbol t name = Hashtbl.find_opt t.symbols name

let symbol_name t v =
  let addr = type_check t v Value.Symbol "symbol-name" in
  string_val t (load_field t addr 0)

let is_symbol t v = has_tag t v Value.Symbol

(* --- Collector interface --- *)

let add_roots t r = t.roots <- t.roots @ [ r ]
let root_sets t = t.roots

let set_collector t ~name fn =
  t.collector_name <- name;
  t.collect <- (fun _t ~requested_words -> fn ~requested_words)

let collector_name t = t.collector_name
let set_write_barrier t fn = t.barrier <- Some fn

let set_dynamic_window t ~base ~limit =
  if base < t.dynamic_base || limit > t.dynamic_limit || base > limit then
    invalid_arg "Heap.set_dynamic_window";
  t.alloc_ptr <- base;
  t.alloc_limit <- limit;
  (* Window-derived default map: the allocation window is tospace.  A
     collector that knows better (semispace bounds, survivors below
     [base]) publishes over this at the same position. *)
  publish_regions t ~to_lo:base ~to_hi:limit ~from_lo:0 ~from_hi:0

let note_collection t = t.collections <- t.collections + 1

let[@inline] gc_read t a = Mem.read t.mem a
let[@inline] gc_write t a v = Mem.write t.mem a v
