type write_miss_policy =
  | Write_validate
  | Fetch_on_write

(* The one label table: manifests hash these strings, so they must
   never change. *)
let write_miss_label = function
  | Write_validate -> "write-validate"
  | Fetch_on_write -> "fetch-on-write"

let write_miss_of_label = function
  | "write-validate" -> Some Write_validate
  | "fetch-on-write" -> Some Fetch_on_write
  | _ -> None

type config = {
  size_bytes : int;
  block_bytes : int;
  write_miss_policy : write_miss_policy;
  collector_fetch_on_write : bool;
  record_block_stats : bool;
}

let config ?(write_miss_policy = Write_validate)
    ?(collector_fetch_on_write = true) ?(record_block_stats = false)
    ~size_bytes ~block_bytes () =
  { size_bytes;
    block_bytes;
    write_miss_policy;
    collector_fetch_on_write;
    record_block_stats
  }

type t = {
  cfg : config;
  nblocks : int;
  block_shift : int;       (* log2 block_bytes *)
  index_mask : int;        (* nblocks - 1 *)
  word_mask : int;         (* words_per_block - 1 *)
  full_lo : int;           (* valid mask for words 0-31 *)
  full_hi : int;           (* valid mask for words 32-63 *)
  tags : int array;        (* memory-block index; -1 when empty *)
  (* Per-word valid bits, split in two because a 256-byte block has 64
     words and OCaml ints carry only 63 bits. *)
  valid_lo : int array;
  valid_hi : int array;
  dirty : Bytes.t;         (* 0/1 per cache block *)
  mutable refs : int;
  mutable collector_refs : int;
  mutable misses : int;
  mutable collector_misses : int;
  mutable alloc_misses : int;
  mutable fetches : int;
  mutable collector_fetches : int;
  mutable writebacks : int;
  mutable collector_writebacks : int;
  mutable writes : int;
  mutable collector_writes : int;
  mutable miss_hook : (cache_block:int -> alloc:bool -> unit) option;
  blk_refs : int array;          (* per cache block, mutator only *)
  blk_misses : int array;        (* excludes allocation misses *)
  blk_alloc_misses : int array;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec loop k n = if n = 1 then k else loop (k + 1) (n lsr 1) in
  loop 0 n

let create cfg =
  if not (is_power_of_two cfg.size_bytes) then
    invalid_arg "Cache.create: size_bytes must be a power of two";
  if not (is_power_of_two cfg.block_bytes) then
    invalid_arg "Cache.create: block_bytes must be a power of two";
  if cfg.block_bytes < Trace.word_bytes then
    invalid_arg "Cache.create: block smaller than a word";
  if cfg.block_bytes > 256 then
    invalid_arg "Cache.create: block wider than 64 words";
  if cfg.block_bytes > cfg.size_bytes then
    invalid_arg "Cache.create: block larger than cache";
  let nblocks = cfg.size_bytes / cfg.block_bytes in
  let words_per_block = cfg.block_bytes / Trace.word_bytes in
  let stats_len = if cfg.record_block_stats then nblocks else 0 in
  { cfg;
    nblocks;
    block_shift = log2 cfg.block_bytes;
    index_mask = nblocks - 1;
    word_mask = words_per_block - 1;
    full_lo = (1 lsl min words_per_block 32) - 1;
    full_hi = (if words_per_block > 32 then (1 lsl (words_per_block - 32)) - 1 else 0);
    tags = Array.make nblocks (-1);
    valid_lo = Array.make nblocks 0;
    valid_hi = Array.make nblocks 0;
    dirty = Bytes.make nblocks '\000';
    refs = 0;
    collector_refs = 0;
    misses = 0;
    collector_misses = 0;
    alloc_misses = 0;
    fetches = 0;
    collector_fetches = 0;
    writebacks = 0;
    collector_writebacks = 0;
    writes = 0;
    collector_writes = 0;
    miss_hook = None;
    blk_refs = Array.make stats_len 0;
    blk_misses = Array.make stats_len 0;
    blk_alloc_misses = Array.make stats_len 0
  }

let geometry t = t.cfg
let num_blocks t = t.nblocks

let set_miss_hook t hook = t.miss_hook <- Some hook

(* One access.  The hot path is written without allocation; per-block
   statistics updates are guarded by [record_block_stats]. *)
let[@hot] access t addr kind phase =
  let mem_block = addr lsr t.block_shift in
  let idx = mem_block land t.index_mask in
  let word = (addr lsr 2) land t.word_mask in
  let high = word >= 32 in
  let wbit = 1 lsl (word land 31) in
  let valid = if high then t.valid_hi else t.valid_lo in
  let mutator =
    match (phase : Trace.phase) with
    | Trace.Mutator -> true
    | Trace.Collector -> false
  in
  if mutator then begin
    t.refs <- t.refs + 1;
    if t.cfg.record_block_stats then
      t.blk_refs.(idx) <- t.blk_refs.(idx) + 1
  end
  else t.collector_refs <- t.collector_refs + 1;
  let is_store =
    match (kind : Trace.kind) with
    | Trace.Read -> false
    | Trace.Write | Trace.Alloc_write -> true
  in
  if is_store then begin
    t.writes <- t.writes + 1;
    if not mutator then t.collector_writes <- t.collector_writes + 1
  end;
  if t.tags.(idx) = mem_block then begin
    if valid.(idx) land wbit <> 0 then begin
      (* Full hit. *)
      if is_store then Bytes.unsafe_set t.dirty idx '\001'
    end
    else if is_store then begin
      (* Tag matches but the word was never written or fetched: a
         write validates it at no memory cost.  The allocation miss
         for this memory block was charged when its tag was installed,
         so this is not a new miss. *)
      valid.(idx) <- valid.(idx) lor wbit;
      Bytes.unsafe_set t.dirty idx '\001'
    end
    else begin
      (* Read of an invalid word in a resident block: miss; fetch the
         whole block and merge. *)
      if mutator then begin
        t.misses <- t.misses + 1;
        t.fetches <- t.fetches + 1;
        if t.cfg.record_block_stats then
          t.blk_misses.(idx) <- t.blk_misses.(idx) + 1
      end
      else begin
        t.collector_misses <- t.collector_misses + 1;
        t.collector_fetches <- t.collector_fetches + 1
      end;
      t.valid_lo.(idx) <- t.full_lo;
      t.valid_hi.(idx) <- t.full_hi;
      (match t.miss_hook with
       | None -> ()
       | Some hook -> hook ~cache_block:idx ~alloc:false)
    end
  end
  else begin
    (* Tag mismatch (or empty block): a miss in every case. *)
    let alloc =
      mutator
      && (match (kind : Trace.kind) with
          | Trace.Alloc_write -> true
          | Trace.Read | Trace.Write -> false)
    in
    if mutator then begin
      t.misses <- t.misses + 1;
      if alloc then begin
        t.alloc_misses <- t.alloc_misses + 1;
        if t.cfg.record_block_stats then
          t.blk_alloc_misses.(idx) <- t.blk_alloc_misses.(idx) + 1
      end
      else if t.cfg.record_block_stats then
        t.blk_misses.(idx) <- t.blk_misses.(idx) + 1
    end
    else t.collector_misses <- t.collector_misses + 1;
    if Bytes.unsafe_get t.dirty idx = '\001' then begin
      t.writebacks <- t.writebacks + 1;
      if not mutator then
        t.collector_writebacks <- t.collector_writebacks + 1;
      Bytes.unsafe_set t.dirty idx '\000'
    end;
    let policy =
      if (not mutator) && t.cfg.collector_fetch_on_write then Fetch_on_write
      else t.cfg.write_miss_policy
    in
    t.tags.(idx) <- mem_block;
    (match policy, is_store with
     | Write_validate, true ->
       (* Allocate the line, validate just this word, fetch nothing. *)
       if high then begin
         t.valid_lo.(idx) <- 0;
         t.valid_hi.(idx) <- wbit
       end
       else begin
         t.valid_lo.(idx) <- wbit;
         t.valid_hi.(idx) <- 0
       end;
       Bytes.unsafe_set t.dirty idx '\001'
     | (Write_validate | Fetch_on_write), false | Fetch_on_write, true ->
       if mutator then t.fetches <- t.fetches + 1
       else t.collector_fetches <- t.collector_fetches + 1;
       t.valid_lo.(idx) <- t.full_lo;
       t.valid_hi.(idx) <- t.full_hi;
       if is_store then Bytes.unsafe_set t.dirty idx '\001');
    (match t.miss_hook with
     | None -> ()
     | Some hook -> hook ~cache_block:idx ~alloc)
  end

(* Batched access: decode packed events (Chunk codec) in a tight loop.
   When no miss hook and no per-block stats are installed — every cache in
   a sweep grid — a specialized loop keeps the geometry in locals,
   accumulates counters in registers and commits them once, with no
   per-event closure or hook checks.  Otherwise fall back to [access]
   per event, which preserves miss-hook ordering exactly. *)
(* [buf]'s concrete Bigarray type must be visible here: an unannotated
   parameter stays polymorphic during inference, and the compiler then
   emits a generic caml_ba_get_1 C call per event instead of a direct
   load (a measured ~2.5x slowdown of this loop). *)
let[@hot] access_chunk t (buf : Chunk.buf) off len =
  if off < 0 || len < 0 || off + len > Bigarray.Array1.dim buf then
    invalid_arg "Cache.access_chunk";
  let needs_slow_path =
    t.cfg.record_block_stats || Option.is_some t.miss_hook
  in
  if needs_slow_path then
    for i = off to off + len - 1 do
      let w = Bigarray.Array1.unsafe_get buf i in
      let addr, kind, phase = Chunk.unpack w in
      access t addr kind phase
    done
  else begin
    let tags = t.tags
    and valid_lo = t.valid_lo
    and valid_hi = t.valid_hi
    and dirty = t.dirty in
    let block_shift = t.block_shift
    and index_mask = t.index_mask
    and word_mask = t.word_mask
    and full_lo = t.full_lo
    and full_hi = t.full_hi in
    let write_validate =
      match t.cfg.write_miss_policy with
      | Write_validate -> true
      | Fetch_on_write -> false
    in
    let collector_fow = t.cfg.collector_fetch_on_write in
    let refs = ref 0
    and collector_refs = ref 0
    and misses = ref 0
    and collector_misses = ref 0
    and alloc_misses = ref 0
    and fetches = ref 0
    and collector_fetches = ref 0
    and writebacks = ref 0
    and collector_writebacks = ref 0
    and writes = ref 0
    and collector_writes = ref 0 in
    for i = off to off + len - 1 do
      let w = Bigarray.Array1.unsafe_get buf i in
      let addr = w lsr 3 in
      let kcode = (w lsr 1) land 3 in
      let mutator = w land 1 = 0 in
      let mem_block = addr lsr block_shift in
      let idx = mem_block land index_mask in
      let word = (addr lsr 2) land word_mask in
      let high = word >= 32 in
      let wbit = 1 lsl (word land 31) in
      let is_store = kcode <> 0 in
      if mutator then incr refs else incr collector_refs;
      if is_store then begin
        incr writes;
        if not mutator then incr collector_writes
      end;
      if Array.unsafe_get tags idx = mem_block then begin
        let valid = if high then valid_hi else valid_lo in
        if Array.unsafe_get valid idx land wbit <> 0 then begin
          if is_store then Bytes.unsafe_set dirty idx '\001'
        end
        else if is_store then begin
          Array.unsafe_set valid idx (Array.unsafe_get valid idx lor wbit);
          Bytes.unsafe_set dirty idx '\001'
        end
        else begin
          if mutator then begin
            incr misses;
            incr fetches
          end
          else begin
            incr collector_misses;
            incr collector_fetches
          end;
          Array.unsafe_set valid_lo idx full_lo;
          Array.unsafe_set valid_hi idx full_hi
        end
      end
      else begin
        if mutator then begin
          incr misses;
          if kcode = 2 then incr alloc_misses
        end
        else incr collector_misses;
        if Bytes.unsafe_get dirty idx = '\001' then begin
          incr writebacks;
          if not mutator then incr collector_writebacks;
          Bytes.unsafe_set dirty idx '\000'
        end;
        Array.unsafe_set tags idx mem_block;
        if
          is_store && write_validate
          && not ((not mutator) && collector_fow)
        then begin
          if high then begin
            Array.unsafe_set valid_lo idx 0;
            Array.unsafe_set valid_hi idx wbit
          end
          else begin
            Array.unsafe_set valid_lo idx wbit;
            Array.unsafe_set valid_hi idx 0
          end;
          Bytes.unsafe_set dirty idx '\001'
        end
        else begin
          if mutator then incr fetches else incr collector_fetches;
          Array.unsafe_set valid_lo idx full_lo;
          Array.unsafe_set valid_hi idx full_hi;
          if is_store then Bytes.unsafe_set dirty idx '\001'
        end
      end
    done;
    t.refs <- t.refs + !refs;
    t.collector_refs <- t.collector_refs + !collector_refs;
    t.misses <- t.misses + !misses;
    t.collector_misses <- t.collector_misses + !collector_misses;
    t.alloc_misses <- t.alloc_misses + !alloc_misses;
    t.fetches <- t.fetches + !fetches;
    t.collector_fetches <- t.collector_fetches + !collector_fetches;
    t.writebacks <- t.writebacks + !writebacks;
    t.collector_writebacks <- t.collector_writebacks + !collector_writebacks;
    t.writes <- t.writes + !writes;
    t.collector_writes <- t.collector_writes + !collector_writes
  end

(* Attributed variant of the [access_chunk] fast loop: identical cache
   transitions and aggregate counter updates, plus per-(region, phase)
   and per-site accounting into [prof] driven by the side-table cursor
   [cur].  [base] is the recording-global index of [buf.(off)]; the
   cursor's logs are consumed forward from it.  Attribution must not
   reorder or change the simulation, so the cache state updates below
   are copied from [access_chunk] verbatim; every aggregate counter
   bump has a slot bump beside it, which is what makes the
   per-region x per-phase sums equal the aggregate stats exactly. *)
let[@hot] access_chunk_attr t (cur : Attr.cursor) (prof : Attr.profile)
    ~base (buf : Chunk.buf) off len =
  if off < 0 || len < 0 || off + len > Bigarray.Array1.dim buf then
    invalid_arg "Cache.access_chunk_attr";
  if base < 0 then invalid_arg "Cache.access_chunk_attr: negative base";
  if t.cfg.record_block_stats || Option.is_some t.miss_hook then
    invalid_arg
      "Cache.access_chunk_attr: a miss hook or per-block stats are \
       installed";
  let tags = t.tags
  and valid_lo = t.valid_lo
  and valid_hi = t.valid_hi
  and dirty = t.dirty in
  let block_shift = t.block_shift
  and index_mask = t.index_mask
  and word_mask = t.word_mask
  and full_lo = t.full_lo
  and full_hi = t.full_hi in
  let write_validate =
    match t.cfg.write_miss_policy with
    | Write_validate -> true
    | Fetch_on_write -> false
  in
  let collector_fow = t.cfg.collector_fetch_on_write in
  let tbl = cur.Attr.ctab in
  let epoch_pos = tbl.Attr.epoch_pos
  and epoch_stack_lo = tbl.Attr.epoch_stack_lo
  and epoch_dyn_lo = tbl.Attr.epoch_dyn_lo
  and epoch_to_lo = tbl.Attr.epoch_to_lo
  and epoch_to_hi = tbl.Attr.epoch_to_hi
  and epoch_from_lo = tbl.Attr.epoch_from_lo
  and epoch_from_hi = tbl.Attr.epoch_from_hi
  and n_epochs = tbl.Attr.n_epochs
  and run_pos = tbl.Attr.run_pos
  and run_site = tbl.Attr.run_site
  and n_runs = tbl.Attr.n_runs in
  let p_refs = prof.Attr.refs
  and p_misses = prof.Attr.misses
  and p_alloc = prof.Attr.alloc_misses
  and p_fetches = prof.Attr.fetches
  and p_writebacks = prof.Attr.writebacks
  and p_writes = prof.Attr.writes
  and site_am = prof.Attr.site_alloc_misses
  and site_aw = prof.Attr.site_alloc_writes
  and heat = prof.Attr.heat
  and region_time = prof.Attr.region_time in
  let heat_rows = prof.Attr.heat_rows
  and heat_cols = prof.Attr.heat_cols
  and row_shift = prof.Attr.heat_row_shift
  and col_shift = prof.Attr.heat_col_shift in
  let ei = ref cur.Attr.ei
  and si = ref cur.Attr.si
  and cur_site = ref cur.Attr.cur_site
  and stack_lo = ref cur.Attr.stack_lo
  and dyn_lo = ref cur.Attr.dyn_lo
  and to_lo = ref cur.Attr.to_lo
  and to_hi = ref cur.Attr.to_hi
  and from_lo = ref cur.Attr.from_lo
  and from_hi = ref cur.Attr.from_hi in
  let refs = ref 0
  and collector_refs = ref 0
  and misses = ref 0
  and collector_misses = ref 0
  and alloc_misses = ref 0
  and fetches = ref 0
  and collector_fetches = ref 0
  and writebacks = ref 0
  and collector_writebacks = ref 0
  and writes = ref 0
  and collector_writes = ref 0 in
  for i = off to off + len - 1 do
    let w = Bigarray.Array1.unsafe_get buf i in
    let p = base + i - off in
    while
      !ei + 1 < n_epochs && Array.unsafe_get epoch_pos (!ei + 1) <= p
    do
      let e = !ei + 1 in
      ei := e;
      stack_lo := Array.unsafe_get epoch_stack_lo e;
      dyn_lo := Array.unsafe_get epoch_dyn_lo e;
      to_lo := Array.unsafe_get epoch_to_lo e;
      to_hi := Array.unsafe_get epoch_to_hi e;
      from_lo := Array.unsafe_get epoch_from_lo e;
      from_hi := Array.unsafe_get epoch_from_hi e
    done;
    while !si < n_runs && Array.unsafe_get run_pos !si <= p do
      cur_site := Array.unsafe_get run_site !si;
      si := !si + 1
    done;
    let addr = w lsr 3 in
    let kcode = (w lsr 1) land 3 in
    let cbit = w land 1 in
    let mutator = cbit = 0 in
    let mem_block = addr lsr block_shift in
    let idx = mem_block land index_mask in
    let word = (addr lsr 2) land word_mask in
    let high = word >= 32 in
    let wbit = 1 lsl (word land 31) in
    let is_store = kcode <> 0 in
    let region =
      if addr < !stack_lo then 0
      else if addr < !dyn_lo then 1
      else if addr >= !to_lo && addr < !to_hi then 2
      else if addr >= !from_lo && addr < !from_hi then 3
      else 4
    in
    let slot = (region lsl 1) lor cbit in
    Array.unsafe_set p_refs slot (Array.unsafe_get p_refs slot + 1);
    if mutator then incr refs else incr collector_refs;
    if is_store then begin
      incr writes;
      Array.unsafe_set p_writes slot (Array.unsafe_get p_writes slot + 1);
      if not mutator then incr collector_writes;
      if kcode = 2 && mutator then
        Array.unsafe_set site_aw !cur_site
          (Array.unsafe_get site_aw !cur_site + 1)
    end;
    if Array.unsafe_get tags idx = mem_block then begin
      let valid = if high then valid_hi else valid_lo in
      if Array.unsafe_get valid idx land wbit <> 0 then begin
        if is_store then Bytes.unsafe_set dirty idx '\001'
      end
      else if is_store then begin
        Array.unsafe_set valid idx (Array.unsafe_get valid idx lor wbit);
        Bytes.unsafe_set dirty idx '\001'
      end
      else begin
        if mutator then begin
          incr misses;
          incr fetches
        end
        else begin
          incr collector_misses;
          incr collector_fetches
        end;
        Array.unsafe_set p_misses slot (Array.unsafe_get p_misses slot + 1);
        Array.unsafe_set p_fetches slot
          (Array.unsafe_get p_fetches slot + 1);
        let r0 = addr lsr row_shift in
        let r = if r0 >= heat_rows then heat_rows - 1 else r0 in
        let c0 = p lsr col_shift in
        let c = if c0 >= heat_cols then heat_cols - 1 else c0 in
        let hidx = (r * heat_cols) + c in
        Array.unsafe_set heat hidx (Array.unsafe_get heat hidx + 1);
        let ridx = (c * 5) + region in
        Array.unsafe_set region_time ridx
          (Array.unsafe_get region_time ridx + 1);
        Array.unsafe_set valid_lo idx full_lo;
        Array.unsafe_set valid_hi idx full_hi
      end
    end
    else begin
      if mutator then begin
        incr misses;
        if kcode = 2 then begin
          incr alloc_misses;
          Array.unsafe_set p_alloc slot (Array.unsafe_get p_alloc slot + 1);
          Array.unsafe_set site_am !cur_site
            (Array.unsafe_get site_am !cur_site + 1)
        end
      end
      else incr collector_misses;
      Array.unsafe_set p_misses slot (Array.unsafe_get p_misses slot + 1);
      let r0 = addr lsr row_shift in
      let r = if r0 >= heat_rows then heat_rows - 1 else r0 in
      let c0 = p lsr col_shift in
      let c = if c0 >= heat_cols then heat_cols - 1 else c0 in
      let hidx = (r * heat_cols) + c in
      Array.unsafe_set heat hidx (Array.unsafe_get heat hidx + 1);
      let ridx = (c * 5) + region in
      Array.unsafe_set region_time ridx
        (Array.unsafe_get region_time ridx + 1);
      if Bytes.unsafe_get dirty idx = '\001' then begin
        incr writebacks;
        if not mutator then incr collector_writebacks;
        (* The write-back belongs to the evicted block's region under
           the map in force now. *)
        let eaddr = Array.unsafe_get tags idx lsl block_shift in
        let eregion =
          if eaddr < !stack_lo then 0
          else if eaddr < !dyn_lo then 1
          else if eaddr >= !to_lo && eaddr < !to_hi then 2
          else if eaddr >= !from_lo && eaddr < !from_hi then 3
          else 4
        in
        let eslot = (eregion lsl 1) lor cbit in
        Array.unsafe_set p_writebacks eslot
          (Array.unsafe_get p_writebacks eslot + 1);
        Bytes.unsafe_set dirty idx '\000'
      end;
      Array.unsafe_set tags idx mem_block;
      if
        is_store && write_validate
        && not ((not mutator) && collector_fow)
      then begin
        if high then begin
          Array.unsafe_set valid_lo idx 0;
          Array.unsafe_set valid_hi idx wbit
        end
        else begin
          Array.unsafe_set valid_lo idx wbit;
          Array.unsafe_set valid_hi idx 0
        end;
        Bytes.unsafe_set dirty idx '\001'
      end
      else begin
        if mutator then incr fetches else incr collector_fetches;
        Array.unsafe_set p_fetches slot
          (Array.unsafe_get p_fetches slot + 1);
        Array.unsafe_set valid_lo idx full_lo;
        Array.unsafe_set valid_hi idx full_hi;
        if is_store then Bytes.unsafe_set dirty idx '\001'
      end
    end
  done;
  t.refs <- t.refs + !refs;
  t.collector_refs <- t.collector_refs + !collector_refs;
  t.misses <- t.misses + !misses;
  t.collector_misses <- t.collector_misses + !collector_misses;
  t.alloc_misses <- t.alloc_misses + !alloc_misses;
  t.fetches <- t.fetches + !fetches;
  t.collector_fetches <- t.collector_fetches + !collector_fetches;
  t.writebacks <- t.writebacks + !writebacks;
  t.collector_writebacks <- t.collector_writebacks + !collector_writebacks;
  t.writes <- t.writes + !writes;
  t.collector_writes <- t.collector_writes + !collector_writes;
  cur.Attr.ei <- !ei;
  cur.Attr.si <- !si;
  cur.Attr.cur_site <- !cur_site;
  cur.Attr.stack_lo <- !stack_lo;
  cur.Attr.dyn_lo <- !dyn_lo;
  cur.Attr.to_lo <- !to_lo;
  cur.Attr.to_hi <- !to_hi;
  cur.Attr.from_lo <- !from_lo;
  cur.Attr.from_hi <- !from_hi;
  prof.Attr.events_attributed <- prof.Attr.events_attributed + len

let sink t = { Trace.access = (fun addr kind phase -> access t addr kind phase) }

type stats = {
  refs : int;
  collector_refs : int;
  misses : int;
  collector_misses : int;
  alloc_misses : int;
  fetches : int;
  collector_fetches : int;
  writebacks : int;
  collector_writebacks : int;
  writes : int;
  collector_writes : int;
}

let stats (t : t) : stats =
  { refs = t.refs;
    collector_refs = t.collector_refs;
    misses = t.misses;
    collector_misses = t.collector_misses;
    alloc_misses = t.alloc_misses;
    fetches = t.fetches;
    collector_fetches = t.collector_fetches;
    writebacks = t.writebacks;
    collector_writebacks = t.collector_writebacks;
    writes = t.writes;
    collector_writes = t.collector_writes
  }

let mutator_hits (s : stats) = s.refs - s.misses
let collector_hits (s : stats) = s.collector_refs - s.collector_misses

let require_block_stats t fname =
  if not t.cfg.record_block_stats then
    invalid_arg (fname ^ ": cache created without record_block_stats")

let block_refs t =
  require_block_stats t "Cache.block_refs";
  Array.copy t.blk_refs

let block_misses t =
  require_block_stats t "Cache.block_misses";
  Array.copy t.blk_misses

let block_alloc_misses t =
  require_block_stats t "Cache.block_alloc_misses";
  Array.copy t.blk_alloc_misses

(* --- Checkpointing ------------------------------------------------------ *)

(* The snapshot captures everything [access] reads or writes — tags,
   valid masks, dirty bits, counters, per-block statistics — so a
   restored cache continues a replay bit-identically.  The miss hook
   is runtime wiring, not state, and is not captured.  Layout: a
   geometry header (validated on restore), 11 counters, then the
   arrays, all as little-endian 64-bit words (dirty bits one byte
   each). *)

let snapshot_magic = 0x504B435343414345L (* "CACHE…CKP" tag family *)

let policy_code = function Write_validate -> 0 | Fetch_on_write -> 1

let snapshot t buf =
  let add n = Buffer.add_int64_le buf (Int64.of_int n) in
  Buffer.add_int64_le buf snapshot_magic;
  add t.cfg.size_bytes;
  add t.cfg.block_bytes;
  add (policy_code t.cfg.write_miss_policy);
  add (if t.cfg.collector_fetch_on_write then 1 else 0);
  add (if t.cfg.record_block_stats then 1 else 0);
  add t.refs;
  add t.collector_refs;
  add t.misses;
  add t.collector_misses;
  add t.alloc_misses;
  add t.fetches;
  add t.collector_fetches;
  add t.writebacks;
  add t.collector_writebacks;
  add t.writes;
  add t.collector_writes;
  let add_array a = Array.iter add a in
  add_array t.tags;
  add_array t.valid_lo;
  add_array t.valid_hi;
  Buffer.add_bytes buf t.dirty;
  add_array t.blk_refs;
  add_array t.blk_misses;
  add_array t.blk_alloc_misses

let snapshot_bytes t =
  (* magic + 5 geometry words + 11 counters, then the arrays. *)
  (8 * 17) + (8 * 3 * t.nblocks) + t.nblocks
  + (8 * 3 * Array.length t.blk_refs)

let restore t src pos =
  let len = Bytes.length src in
  if pos < 0 || len - pos < snapshot_bytes t then
    invalid_arg "Cache.restore: truncated snapshot";
  let pos = ref pos in
  let word () =
    let w64 = Bytes.get_int64_le src !pos in
    pos := !pos + 8;
    let w = Int64.to_int w64 in
    if not (Int64.equal (Int64.of_int w) w64) then
      invalid_arg "Cache.restore: snapshot word does not fit a native int";
    w
  in
  if not (Int64.equal (Bytes.get_int64_le src !pos) snapshot_magic) then
    invalid_arg "Cache.restore: not a cache snapshot";
  pos := !pos + 8;
  let geom name expected actual =
    if expected <> actual then
      invalid_arg
        (Printf.sprintf
           "Cache.restore: snapshot %s is %d but the cache has %d" name
           actual expected)
  in
  geom "size_bytes" t.cfg.size_bytes (word ());
  geom "block_bytes" t.cfg.block_bytes (word ());
  geom "write_miss_policy" (policy_code t.cfg.write_miss_policy) (word ());
  geom "collector_fetch_on_write"
    (if t.cfg.collector_fetch_on_write then 1 else 0)
    (word ());
  geom "record_block_stats"
    (if t.cfg.record_block_stats then 1 else 0)
    (word ());
  t.refs <- word ();
  t.collector_refs <- word ();
  t.misses <- word ();
  t.collector_misses <- word ();
  t.alloc_misses <- word ();
  t.fetches <- word ();
  t.collector_fetches <- word ();
  t.writebacks <- word ();
  t.collector_writebacks <- word ();
  t.writes <- word ();
  t.collector_writes <- word ();
  let read_array a =
    for i = 0 to Array.length a - 1 do
      a.(i) <- word ()
    done
  in
  read_array t.tags;
  read_array t.valid_lo;
  read_array t.valid_hi;
  Bytes.blit src !pos t.dirty 0 t.nblocks;
  pos := !pos + t.nblocks;
  read_array t.blk_refs;
  read_array t.blk_misses;
  read_array t.blk_alloc_misses;
  !pos

let reset_stats (t : t) =
  t.refs <- 0;
  t.collector_refs <- 0;
  t.misses <- 0;
  t.collector_misses <- 0;
  t.alloc_misses <- 0;
  t.fetches <- 0;
  t.collector_fetches <- 0;
  t.writebacks <- 0;
  t.collector_writebacks <- 0;
  t.writes <- 0;
  t.collector_writes <- 0;
  Array.fill t.blk_refs 0 (Array.length t.blk_refs) 0;
  Array.fill t.blk_misses 0 (Array.length t.blk_misses) 0;
  Array.fill t.blk_alloc_misses 0 (Array.length t.blk_alloc_misses) 0
