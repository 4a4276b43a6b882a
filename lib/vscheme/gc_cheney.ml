type stats = {
  collections : int;
  words_copied : int;
  objects_copied : int;
}

type t = {
  heap : Heap.t;
  semi : int;
  space0 : int;  (* base of semispace 0 *)
  space1 : int;
  mutable current : int;  (* 0 or 1 *)
  mutable collections : int;
  mutable words_copied : int;
  mutable objects_copied : int;
}

let space_base inst which = if which = 0 then inst.space0 else inst.space1

let collect inst ~requested_words =
  let heap = inst.heap in
  let from_lo = space_base inst inst.current in
  let from_hi = from_lo + inst.semi in
  let to_base = space_base inst (1 - inst.current) in
  let occupied = Heap.alloc_ptr heap - from_lo in
  (* Copying traffic runs under the true semispace map: destination
     space as tospace, source as fromspace. *)
  Heap.publish_regions heap ~to_lo:to_base ~to_hi:(to_base + inst.semi)
    ~from_lo ~from_hi;
  Gc_obs.instrumented heap ~collector:"cheney" ~kind:"full"
    ~occupancy_words:occupied (fun () ->
      let st =
        Gc_copy.make heap ~free:to_base ~in_from:(fun a ->
            a >= from_lo && a < from_hi)
      in
      Gc_copy.forward_all_roots st;
      Gc_copy.scan st to_base;
      inst.current <- 1 - inst.current;
      inst.collections <- inst.collections + 1;
      inst.words_copied <- inst.words_copied + Gc_copy.words_copied st;
      inst.objects_copied <- inst.objects_copied + Gc_copy.objects_copied st;
      Heap.note_collection heap;
      let free = Gc_copy.free_ptr st in
      Heap.set_dynamic_window heap ~base:free ~limit:(to_base + inst.semi);
      (* Override the window-derived map just published: survivors
         below [free] are tospace too, and the evacuated space is
         free, not fromspace, from here on. *)
      Heap.publish_regions heap ~to_lo:to_base ~to_hi:(to_base + inst.semi)
        ~from_lo:0 ~from_hi:0;
      let copied = Gc_copy.words_copied st in
      [ ("bytes_copied", Obs.Events.I (copied * Memsim.Trace.word_bytes));
        ("objects_copied", Obs.Events.I (Gc_copy.objects_copied st));
        ("survivor_ratio",
         Obs.Events.F (float_of_int copied /. float_of_int (max 1 occupied)));
        ("semispace_occupancy",
         Obs.Events.F (float_of_int copied /. float_of_int inst.semi))
      ]);
  ignore requested_words

let required_dynamic_words ~semispace_words = 2 * semispace_words

let install heap ~semispace_words =
  let base = Heap.dynamic_base heap in
  let limit = Heap.dynamic_limit heap in
  if limit - base < 2 * semispace_words then
    invalid_arg "Gc_cheney.install: dynamic area too small for two semispaces";
  let inst =
    { heap;
      semi = semispace_words;
      space0 = base;
      space1 = base + semispace_words;
      current = 0;
      collections = 0;
      words_copied = 0;
      objects_copied = 0
    }
  in
  Heap.set_dynamic_window heap ~base ~limit:(base + semispace_words);
  Heap.set_collector heap ~name:"cheney" (fun ~requested_words ->
      collect inst ~requested_words);
  inst

let stats inst =
  { collections = inst.collections;
    words_copied = inst.words_copied;
    objects_copied = inst.objects_copied
  }
