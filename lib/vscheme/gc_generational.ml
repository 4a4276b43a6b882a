type config = {
  nursery_words : int;
  old_words : int;
}

(* Store-buffer capacity, in entries. *)
let ssb_entries = 32768

let config ~nursery_words ~old_words = { nursery_words; old_words }

type stats = {
  minor_collections : int;
  major_collections : int;
  words_promoted : int;
  words_copied_major : int;
  barrier_hits : int;
  ssb_overflows : int;
}

type t = {
  heap : Heap.t;
  cfg : config;
  n_base : int;
  n_limit : int;
  old0 : int;
  old1 : int;
  ssb_base : int;  (* word address of the first SSB entry (static area) *)
  mutable cur_old : int;  (* 0 or 1 *)
  mutable old_free : int;
  mutable ssb_count : int;
  mutable ssb_overflowed : bool;
  mutable minor_collections : int;
  mutable major_collections : int;
  mutable words_promoted : int;
  mutable words_copied_major : int;
  mutable barrier_hits : int;
  mutable ssb_overflows : int;
}

let old_base inst = if inst.cur_old = 0 then inst.old0 else inst.old1
let other_old inst = if inst.cur_old = 0 then inst.old1 else inst.old0
let old_limit inst = old_base inst + inst.cfg.old_words
let in_nursery inst a = a >= inst.n_base && a < inst.n_limit

(* The write barrier, run in mutator phase on every heap store: record
   stores that create an old-to-nursery pointer.  On SSB overflow we
   fall back to scanning the whole old region at the next minor
   collection, as real systems did. *)
let barrier inst ~field_addr ~value =
  Heap.charge_mutator inst.heap 2;
  if Value.is_pointer value
     && in_nursery inst (Value.pointer_val value)
     && field_addr >= old_base inst
     && field_addr < inst.old_free
  then begin
    Heap.charge_mutator inst.heap 3;
    inst.barrier_hits <- inst.barrier_hits + 1;
    if inst.ssb_count >= ssb_entries then begin
      if not inst.ssb_overflowed then begin
        inst.ssb_overflowed <- true;
        inst.ssb_overflows <- inst.ssb_overflows + 1
      end
    end
    else begin
      Mem.write (Heap.mem inst.heap)
        (inst.ssb_base + inst.ssb_count)
        (Value.fixnum field_addr);
      inst.ssb_count <- inst.ssb_count + 1
    end
  end

let drain_ssb inst st ~old_lo ~old_hi =
  let heap = inst.heap in
  if inst.ssb_overflowed then
    (* Fallback: walk every old object for nursery pointers. *)
    Gc_copy.scan_objects st ~lo:old_lo ~hi:old_hi
  else
    for i = 0 to inst.ssb_count - 1 do
      Heap.charge_collector heap 4;
      let field_addr =
        Value.fixnum_val (Heap.gc_read heap (inst.ssb_base + i))
      in
      let v = Heap.gc_read heap field_addr in
      let v' = Gc_copy.forward st v in
      if v' <> v then Heap.gc_write heap field_addr v'
    done

let reset_after inst =
  inst.ssb_count <- 0;
  inst.ssb_overflowed <- false;
  Heap.note_collection inst.heap;
  Heap.set_dynamic_window inst.heap ~base:inst.n_base ~limit:inst.n_limit

let minor inst =
  let heap = inst.heap in
  let nursery_used = Heap.alloc_ptr heap - inst.n_base in
  Gc_obs.instrumented heap ~collector:"generational" ~kind:"minor"
    ~occupancy_words:nursery_used (fun () ->
      let promote_start = inst.old_free in
      let st =
        Gc_copy.make heap ~limit:(old_limit inst) ~free:promote_start
          ~in_from:(in_nursery inst)
      in
      Gc_copy.forward_all_roots st;
      drain_ssb inst st ~old_lo:(old_base inst) ~old_hi:promote_start;
      Gc_copy.scan st promote_start;
      inst.old_free <- Gc_copy.free_ptr st;
      inst.minor_collections <- inst.minor_collections + 1;
      let promoted = Gc_copy.words_copied st in
      inst.words_promoted <- inst.words_promoted + promoted;
      reset_after inst;
      Obs.Metrics.Counter.incr Gc_obs.minor_collections;
      Obs.Metrics.Counter.add Gc_obs.words_promoted promoted;
      [ ("bytes_promoted", Obs.Events.I (promoted * Memsim.Trace.word_bytes));
        ("survivor_ratio",
         Obs.Events.F
           (float_of_int promoted /. float_of_int (max 1 nursery_used)));
        ("old_occupancy",
         Obs.Events.F
           (float_of_int (inst.old_free - old_base inst)
            /. float_of_int inst.cfg.old_words))
      ])

let major inst =
  let heap = inst.heap in
  let from_old_lo = old_base inst in
  let from_old_hi = inst.old_free in
  let occupied =
    (from_old_hi - from_old_lo) + (Heap.alloc_ptr heap - inst.n_base)
  in
  Gc_obs.instrumented heap ~collector:"generational" ~kind:"major"
    ~occupancy_words:occupied (fun () ->
      let to_base = other_old inst in
      let in_from a =
        in_nursery inst a || (a >= from_old_lo && a < from_old_hi)
      in
      let st =
        Gc_copy.make heap ~limit:(to_base + inst.cfg.old_words) ~free:to_base
          ~in_from
      in
      Gc_copy.forward_all_roots st;
      Gc_copy.scan st to_base;
      inst.cur_old <- 1 - inst.cur_old;
      inst.old_free <- Gc_copy.free_ptr st;
      inst.major_collections <- inst.major_collections + 1;
      let copied = Gc_copy.words_copied st in
      inst.words_copied_major <- inst.words_copied_major + copied;
      reset_after inst;
      Obs.Metrics.Counter.incr Gc_obs.major_collections;
      [ ("bytes_copied", Obs.Events.I (copied * Memsim.Trace.word_bytes));
        ("survivor_ratio",
         Obs.Events.F (float_of_int copied /. float_of_int (max 1 occupied)));
        ("old_occupancy",
         Obs.Events.F
           (float_of_int (inst.old_free - old_base inst)
            /. float_of_int inst.cfg.old_words))
      ])

let collect inst ~requested_words =
  if requested_words > inst.cfg.nursery_words then
    raise
      (Heap.Out_of_memory
         (Printf.sprintf "object of %d words exceeds the nursery"
            requested_words));
  let nursery_used = Heap.alloc_ptr inst.heap - inst.n_base in
  if inst.old_free + nursery_used > old_limit inst then major inst
  else minor inst

let required_dynamic_words cfg = cfg.nursery_words + (2 * cfg.old_words)

let install heap cfg =
  let base = Heap.dynamic_base heap in
  let limit = Heap.dynamic_limit heap in
  if limit - base < required_dynamic_words cfg then
    invalid_arg "Gc_generational.install: dynamic area too small";
  (* The SSB is a runtime table in the static area, as in real
     systems. *)
  let ssb_obj =
    Heap.alloc heap Heap.Static Value.Vector ~len:ssb_entries
  in
  let inst =
    { heap;
      cfg;
      n_base = base;
      n_limit = base + cfg.nursery_words;
      old0 = base + cfg.nursery_words;
      old1 = base + cfg.nursery_words + cfg.old_words;
      ssb_base = ssb_obj + 1;
      cur_old = 0;
      old_free = base + cfg.nursery_words;
      ssb_count = 0;
      ssb_overflowed = false;
      minor_collections = 0;
      major_collections = 0;
      words_promoted = 0;
      words_copied_major = 0;
      barrier_hits = 0;
      ssb_overflows = 0
    }
  in
  Heap.set_dynamic_window heap ~base ~limit:inst.n_limit;
  Heap.set_write_barrier heap (fun ~field_addr ~value ->
      barrier inst ~field_addr ~value);
  Heap.set_collector heap ~name:"generational" (fun ~requested_words ->
      collect inst ~requested_words);
  inst

let stats inst =
  { minor_collections = inst.minor_collections;
    major_collections = inst.major_collections;
    words_promoted = inst.words_promoted;
    words_copied_major = inst.words_copied_major;
    barrier_hits = inst.barrier_hits;
    ssb_overflows = inst.ssb_overflows
  }
