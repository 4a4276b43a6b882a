type config = {
  nursery_words : int;
  old_words : int;
}

(* Store-buffer capacity, in entries. *)
let ssb_entries = 32768

let config ~nursery_words ~old_words =
  (* Old-generation bookkeeping works in even-sized units so that a
     linear sweep can step over allocated objects and free blocks
     alike; see [unit_size]. *)
  { nursery_words; old_words = old_words land lnot 1 }

type stats = {
  minor_collections : int;
  major_collections : int;
  words_promoted : int;
  words_swept : int;
  barrier_hits : int;
}

(* Free-list size classes: exact sizes 2..16 words, then one list per
   power-of-two bucket, then a catch-all. *)
let nclasses = 24

let class_of_size n =
  if n <= 16 then n - 2
  else if n <= 32 then 15
  else if n <= 64 then 16
  else if n <= 128 then 17
  else if n <= 256 then 18
  else if n <= 1024 then 19
  else if n <= 4096 then 20
  else if n <= 16384 then 21
  else if n <= 65536 then 22
  else 23

type t = {
  heap : Heap.t;
  cfg : config;
  n_base : int;
  n_limit : int;
  old_base : int;
  old_limit : int;
  ssb_base : int;
  free_heads : int array; (* per class: word address of first free block, -1 none *)
  mutable ssb_overflowed : bool;
  marks : Bytes.t;        (* one byte per old-generation word *)
  mutable free_total : int;
  mutable ssb_count : int;
  mutable minor_collections : int;
  mutable major_collections : int;
  mutable words_promoted : int;
  mutable words_swept : int;
  mutable barrier_hits : int;
}

let in_nursery inst a = a >= inst.n_base && a < inst.n_limit
let in_old inst a = a >= inst.old_base && a < inst.old_limit

(* The footprint every old-generation allocation is rounded to: even,
   so free blocks can always describe leftovers. *)
let unit_size header =
  let w = Value.object_words header in
  w + (w land 1)

(* --- Free lists --------------------------------------------------------
   A free block is [header (tag Free, len = size-1)] [next] ...; [next]
   is the word address of the next free block of the class, or -1.  All
   free-list manipulation is traced collector traffic. *)

let free_block_size inst addr =
  1 + Value.header_len (Heap.gc_read inst.heap addr)

let push_free inst addr size =
  assert (size land 1 = 0 && size >= 2);
  let heap = inst.heap in
  Heap.charge_collector heap 4;
  Heap.gc_write heap addr (Value.header Value.Free ~len:(size - 1));
  let cls = class_of_size size in
  Heap.gc_write heap (addr + 1) inst.free_heads.(cls);
  inst.free_heads.(cls) <- addr;
  inst.free_total <- inst.free_total + size

(* First-fit within a class; searches larger classes on failure.
   Returns the address of a region of exactly [size] words, splitting
   the found block, or -1 when the old generation is exhausted. *)
let allocate_old inst size =
  let heap = inst.heap in
  let rec search cls =
    if cls >= nclasses then -1
    else begin
      (* walk this class's list for a block >= size *)
      let rec walk prev addr =
        if addr < 0 then search (cls + 1)
        else begin
          Heap.charge_collector heap 3;
          let bsize = free_block_size inst addr in
          let next = Heap.gc_read heap (addr + 1) in
          if bsize >= size then begin
            (* unlink *)
            (match prev with
             | None -> inst.free_heads.(cls) <- next
             | Some p -> Heap.gc_write heap (p + 1) next);
            inst.free_total <- inst.free_total - bsize;
            let rest = bsize - size in
            if rest >= 2 then push_free inst (addr + size) rest;
            addr
          end
          else walk (Some addr) next
        end
      in
      walk None inst.free_heads.(cls)
    end
  in
  search (class_of_size size)

(* --- Write barrier ----------------------------------------------------- *)

let barrier inst ~field_addr ~value =
  Heap.charge_mutator inst.heap 2;
  if Value.is_pointer value
     && in_nursery inst (Value.pointer_val value)
     && in_old inst field_addr
  then begin
    Heap.charge_mutator inst.heap 3;
    inst.barrier_hits <- inst.barrier_hits + 1;
    if inst.ssb_count >= ssb_entries then
      (* Fall back to scanning the whole old generation at the next
         minor collection rather than lose the edge. *)
      inst.ssb_overflowed <- true
    else begin
      Mem.write (Heap.mem inst.heap)
        (inst.ssb_base + inst.ssb_count)
        (Value.fixnum field_addr);
      inst.ssb_count <- inst.ssb_count + 1
    end
  end

(* --- Minor collection ---------------------------------------------------
   Copy live nursery objects into free-list storage; old objects stay
   put.  A host-side worklist stands in for Cheney's scan pointer,
   since promoted objects are not contiguous. *)

exception Old_space_full

let payload_is_values tag =
  match (tag : Value.tag) with
  | Value.Pair | Value.Vector | Value.Closure | Value.Cell | Value.Table ->
    true
  | Value.String | Value.Symbol | Value.Flonum -> false
  | Value.Forward | Value.Free -> assert false

let promote inst worklist addr =
  let heap = inst.heap in
  let header = Heap.gc_read heap addr in
  if Value.header_tag header = Value.Forward then Heap.gc_read heap (addr + 1)
  else begin
    let words = Value.object_words header in
    let dst = allocate_old inst (unit_size header) in
    if dst < 0 then raise Old_space_full;
    Heap.charge_collector heap (4 + (2 * words));
    Heap.gc_write heap dst header;
    for i = 1 to words - 1 do
      Heap.gc_write heap (dst + i) (Heap.gc_read heap (addr + i))
    done;
    inst.words_promoted <- inst.words_promoted + words;
    let v = Value.pointer dst in
    Heap.gc_write heap addr (Value.header Value.Forward ~len:1);
    Heap.gc_write heap (addr + 1) v;
    worklist := dst :: !worklist;
    v
  end

let forward_minor inst worklist v =
  if Value.is_pointer v && in_nursery inst (Value.pointer_val v) then
    promote inst worklist (Value.pointer_val v)
  else v

let minor inst =
  let heap = inst.heap in
  let nursery_used = Heap.alloc_ptr heap - inst.n_base in
  let promoted_before = inst.words_promoted in
  Gc_obs.instrumented heap ~collector:"mark-sweep" ~kind:"minor"
    ~occupancy_words:nursery_used (fun () ->
  let worklist = ref [] in
  let fwd v = forward_minor inst worklist v in
  (* roots *)
  List.iter
    (fun roots ->
      match (roots : Heap.roots) with
      | Heap.Range range ->
        let lo, hi = range () in
        for a = lo to hi - 1 do
          Heap.charge_collector heap 2;
          let v = Heap.gc_read heap a in
          let v' = fwd v in
          if v' <> v then Heap.gc_write heap a v'
        done
      | Heap.Registers (regs, live) ->
        for i = 0 to live () - 1 do
          regs.(i) <- fwd regs.(i)
        done)
    (Heap.root_sets heap);
  (* store buffer; on overflow, walk every allocated old object *)
  if inst.ssb_overflowed then begin
    let rec walk addr =
      if addr < inst.old_limit then begin
        Heap.charge_collector heap 2;
        let header = Heap.gc_read heap addr in
        match Value.header_tag header with
        | Value.Free -> walk (addr + 1 + Value.header_len header)
        | Value.Pair | Value.Vector | Value.Closure | Value.Cell
        | Value.Table ->
          for i = 1 to Value.header_len header do
            Heap.charge_collector heap 2;
            let v = Heap.gc_read heap (addr + i) in
            let v' = fwd v in
            if v' <> v then Heap.gc_write heap (addr + i) v'
          done;
          walk (addr + unit_size header)
        | Value.String | Value.Symbol | Value.Flonum | Value.Forward ->
          walk (addr + unit_size header)
      end
    in
    walk inst.old_base
  end
  else
    for i = 0 to inst.ssb_count - 1 do
      Heap.charge_collector heap 4;
      let field_addr = Value.fixnum_val (Heap.gc_read heap (inst.ssb_base + i)) in
      let v = Heap.gc_read heap field_addr in
      let v' = fwd v in
      if v' <> v then Heap.gc_write heap field_addr v'
    done;
  (* transitive promotion *)
  let rec drain () =
    match !worklist with
    | [] -> ()
    | addr :: rest ->
      worklist := rest;
      let header = Heap.gc_read heap addr in
      Heap.charge_collector heap 4;
      if payload_is_values (Value.header_tag header) then begin
        for i = 1 to Value.header_len header do
          Heap.charge_collector heap 2;
          let v = Heap.gc_read heap (addr + i) in
          let v' = fwd v in
          if v' <> v then Heap.gc_write heap (addr + i) v'
        done
      end;
      drain ()
  in
  drain ();
  inst.minor_collections <- inst.minor_collections + 1;
  inst.ssb_count <- 0;
  inst.ssb_overflowed <- false;
  Heap.note_collection heap;
  Heap.set_dynamic_window heap ~base:inst.n_base ~limit:inst.n_limit;
  let promoted = inst.words_promoted - promoted_before in
  Obs.Metrics.Counter.incr Gc_obs.minor_collections;
  Obs.Metrics.Counter.add Gc_obs.words_promoted promoted;
  [ ("bytes_promoted", Obs.Events.I (promoted * Memsim.Trace.word_bytes));
    ("survivor_ratio",
     Obs.Events.F (float_of_int promoted /. float_of_int (max 1 nursery_used)));
    ("free_bytes", Obs.Events.I (inst.free_total * Memsim.Trace.word_bytes))
  ])

(* --- Major collection: mark live old + nursery, sweep old ------------- *)

let mark_of inst addr = Bytes.get inst.marks (addr - inst.old_base)
let set_mark inst addr v = Bytes.set inst.marks (addr - inst.old_base) v

let major inst =
  let heap = inst.heap in
  let occupied =
    (inst.cfg.old_words - inst.free_total) + (Heap.alloc_ptr heap - inst.n_base)
  in
  Gc_obs.instrumented heap ~collector:"mark-sweep" ~kind:"major"
    ~occupancy_words:occupied (fun () ->
  Bytes.fill inst.marks 0 (Bytes.length inst.marks) '\000';
  let nursery_seen = Hashtbl.create 1024 in
  let new_ssb = ref [] in
  let worklist = ref [] in
  let note v =
    if Value.is_pointer v then begin
      let a = Value.pointer_val v in
      if in_old inst a then begin
        if mark_of inst a = '\000' then begin
          set_mark inst a '\001';
          worklist := a :: !worklist
        end
      end
      else if in_nursery inst a then begin
        if not (Hashtbl.mem nursery_seen a) then begin
          Hashtbl.replace nursery_seen a ();
          worklist := a :: !worklist
        end
      end
    end
  in
  (* roots; reads are traced, values are not updated (nothing moves) *)
  List.iter
    (fun roots ->
      match (roots : Heap.roots) with
      | Heap.Range range ->
        let lo, hi = range () in
        for a = lo to hi - 1 do
          Heap.charge_collector heap 2;
          note (Heap.gc_read heap a)
        done
      | Heap.Registers (regs, live) ->
        for i = 0 to live () - 1 do
          note regs.(i)
        done)
    (Heap.root_sets heap);
  let rec drain () =
    match !worklist with
    | [] -> ()
    | addr :: rest ->
      worklist := rest;
      let header = Heap.gc_read heap addr in
      Heap.charge_collector heap 3;
      if payload_is_values (Value.header_tag header) then
        for i = 1 to Value.header_len header do
          Heap.charge_collector heap 2;
          let v = Heap.gc_read heap (addr + i) in
          (* Rebuild the store buffer from live old-to-nursery edges:
             dead old objects' entries must not survive the sweep. *)
          if in_old inst addr
             && Value.is_pointer v
             && in_nursery inst (Value.pointer_val v)
          then new_ssb := (addr + i) :: !new_ssb;
          note v
        done;
      drain ()
  in
  drain ();
  (* sweep: rebuild the free lists from unmarked storage *)
  Array.fill inst.free_heads 0 nclasses (-1);
  inst.free_total <- 0;
  let swept = ref 0 in
  let flush run_start run_len =
    if run_len >= 2 then begin
      push_free inst run_start run_len;
      swept := !swept + run_len
    end
  in
  let rec walk addr run_start run_len =
    if addr >= inst.old_limit then flush run_start run_len
    else begin
      Heap.charge_collector heap 2;
      let header = Heap.gc_read heap addr in
      let size =
        match Value.header_tag header with
        | Value.Free -> 1 + Value.header_len header
        | Value.Pair | Value.Vector | Value.Closure | Value.String
        | Value.Symbol | Value.Flonum | Value.Table | Value.Cell
        | Value.Forward ->
          unit_size header
      in
      let live =
        (match Value.header_tag header with
         | Value.Free -> false
         | Value.Pair | Value.Vector | Value.Closure | Value.String
         | Value.Symbol | Value.Flonum | Value.Table | Value.Cell
         | Value.Forward ->
           true)
        && mark_of inst addr = '\001'
      in
      if live then begin
        flush run_start run_len;
        walk (addr + size) (addr + size) 0
      end
      else walk (addr + size) run_start (run_len + size)
    end
  in
  walk inst.old_base inst.old_base 0;
  inst.words_swept <- inst.words_swept + !swept;
  (* install the rebuilt store buffer *)
  inst.ssb_count <- 0;
  inst.ssb_overflowed <- false;
  List.iter
    (fun field_addr ->
      if inst.ssb_count < ssb_entries then begin
        Heap.gc_write heap (inst.ssb_base + inst.ssb_count)
          (Value.fixnum field_addr);
        inst.ssb_count <- inst.ssb_count + 1
      end)
    !new_ssb;
  inst.major_collections <- inst.major_collections + 1;
  Obs.Metrics.Counter.incr Gc_obs.major_collections;
  Obs.Metrics.Counter.add Gc_obs.words_swept !swept;
  [ ("bytes_swept", Obs.Events.I (!swept * Memsim.Trace.word_bytes));
    ("free_bytes", Obs.Events.I (inst.free_total * Memsim.Trace.word_bytes))
  ])

let collect inst ~requested_words =
  if requested_words > inst.cfg.nursery_words then
    raise
      (Heap.Out_of_memory
         (Printf.sprintf "object of %d words exceeds the nursery"
            requested_words));
  (* A minor collection may promote everything live in the nursery,
     each object rounded up one word; make room up front because the
     free-list copy cannot be restarted. *)
  let nursery_used = Heap.alloc_ptr inst.heap - inst.n_base in
  let worst = nursery_used + (nursery_used / 2) + 64 in
  if inst.free_total < worst then major inst;
  if inst.free_total < worst then
    raise (Heap.Out_of_memory "mark-sweep old generation exhausted");
  (match minor inst with
   | () -> ()
   | exception Old_space_full ->
     raise (Heap.Out_of_memory "mark-sweep promotion overflowed old generation"))

let required_dynamic_words cfg = cfg.nursery_words + cfg.old_words

let install heap cfg =
  let base = Heap.dynamic_base heap in
  let limit = Heap.dynamic_limit heap in
  if limit - base < required_dynamic_words cfg then
    invalid_arg "Gc_marksweep.install: dynamic area too small";
  let ssb_obj = Heap.alloc heap Heap.Static Value.Vector ~len:ssb_entries in
  let old_base = base + cfg.nursery_words in
  let inst =
    { heap;
      cfg;
      n_base = base;
      n_limit = old_base;
      old_base;
      old_limit = old_base + cfg.old_words;
      ssb_base = ssb_obj + 1;
      free_heads = Array.make nclasses (-1);
      ssb_overflowed = false;
      marks = Bytes.make cfg.old_words '\000';
      free_total = 0;
      ssb_count = 0;
      minor_collections = 0;
      major_collections = 0;
      words_promoted = 0;
      words_swept = 0;
      barrier_hits = 0
    }
  in
  push_free inst old_base cfg.old_words;
  Heap.set_dynamic_window heap ~base ~limit:inst.n_limit;
  Heap.set_write_barrier heap (fun ~field_addr ~value ->
      barrier inst ~field_addr ~value);
  Heap.set_collector heap ~name:"mark-sweep" (fun ~requested_words ->
      collect inst ~requested_words);
  inst

let free_words inst = inst.free_total

let stats inst =
  { minor_collections = inst.minor_collections;
    major_collections = inst.major_collections;
    words_promoted = inst.words_promoted;
    words_swept = inst.words_swept;
    barrier_hits = inst.barrier_hits
  }
