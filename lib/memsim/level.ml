(* Policy-pluggable set-associative cache level — the one cache
   simulator.

   One level of a hierarchy: N sets of W ways with a replacement
   policy chosen per level.  The block model — per-word valid bits,
   write-validate vs fetch-on-write, collector stores forced to
   fetch-on-write — is the paper's §4 cache (see level.mli).  A 1-way
   level is the paper's direct-mapped cache, and its chunk step takes
   a dedicated direct-indexed loop ([run_direct]); the per-event
   [access] stays the oracle it is tested against.

   Replacement state is packed into per-set machine words in [pol]:

   - [Lru]        exact recency ranks, 5-bit fields, 12 fields/word,
                  ceil(ways/12) words per set.  Rank 0 is MRU; the
                  ranks of a set always form a permutation of
                  0..ways-1, so the victim (rank ways-1) is unique.
   - [Tree_plru]  the classic ways-1 tree bits in one word: bit p-1
                  is node p of the implicit heap (root 1), 0 = victim
                  search descends left.
   - [Mru]        bit-PLRU: one MRU bit per way; when setting the
                  last zero bit would fill the mask, all other bits
                  reset.  Victim is the lowest-indexed zero bit.
   - [Qlru_*]     2-bit ages, 31 fields/word.  An interpretation of
                  the reverse-engineered QLRU_H11_M1_Rx_Ux family
                  (CacheTrace / nanoBench naming), not a cycle-exact
                  Intel model: hits map ages (3,2,1,0) to (1,1,0,0)
                  [H11]; fills insert at age 1 [M1]; when no way has
                  age 3 at eviction time every age is raised by the
                  same deficit so the maximum becomes 3; U2
                  additionally ages every other line by one
                  (saturating) on each fill, U0 ages only via that
                  normalization; among age-3 ways R0 evicts the
                  lowest index, R1 the highest.

   Invalid ways are always filled first (lowest index), under every
   policy.

   All updates are word ops on [pol] — no per-line timestamp arrays
   and no monotonically growing tick (the defect that capped an
   earlier timestamp-based LRU cache at 16 ways). *)

type policy =
  | Lru
  | Tree_plru
  | Mru
  | Qlru_h11_m1_r1_u2
  | Qlru_h11_m1_r0_u0

let policy_code = function
  | Lru -> 0
  | Tree_plru -> 1
  | Mru -> 2
  | Qlru_h11_m1_r1_u2 -> 3
  | Qlru_h11_m1_r0_u0 -> 4

let policy_label = function
  | Lru -> "lru"
  | Tree_plru -> "plru"
  | Mru -> "mru"
  | Qlru_h11_m1_r1_u2 -> "qlru-r1u2"
  | Qlru_h11_m1_r0_u0 -> "qlru-r0u0"

let all_policies =
  [ Lru; Tree_plru; Mru; Qlru_h11_m1_r1_u2; Qlru_h11_m1_r0_u0 ]

type config = {
  size_bytes : int;
  block_bytes : int;
  ways : int;
  policy : policy;
  write_miss_policy : Cache.write_miss_policy;
}

let config ?(policy = Lru) ?(write_miss_policy = Cache.Write_validate)
    ~size_bytes ~block_bytes ~ways () =
  { size_bytes; block_bytes; ways; policy; write_miss_policy }

type t = {
  cfg : config;
  nsets : int;
  ways : int;
  block_shift : int;
  set_mask : int;
  word_mask : int;
  full_lo : int;
  full_hi : int;
  pstride : int;           (* policy words per set *)
  (* Line arrays indexed by [set * ways + way]. *)
  tags : int array;
  valid_lo : int array;
  valid_hi : int array;
  dirty : Bytes.t;
  pol : int array;         (* nsets * pstride packed policy words *)
  (* Line index of the most recent access resolved in each set, -1
     before the first.  Pure accelerator for the chunk loop: a tag
     match at [hint.(set)] proves the hit line without a scan, and —
     because every resolution promotes or fills the resolved way, and
     policy state is per-set — proves the pending promote is a no-op
     for hit-idempotent policies.  Never serialized; [restore] resets
     it. *)
  hint : int array;
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
  mutable fetch_hook : (int -> Trace.phase -> unit) option;
  mutable writeback_hook : (int -> Trace.phase -> unit) option;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec loop k n = if n = 1 then k else loop (k + 1) (n lsr 1) in
  loop 0 n

let stride_of policy ways =
  match policy with
  | Lru -> (ways + 11) / 12
  | Tree_plru | Mru -> 1
  | Qlru_h11_m1_r1_u2 | Qlru_h11_m1_r0_u0 -> (ways + 30) / 31

(* --- Packed policy fields ---------------------------------------------- *)

let[@inline] lru_get pol pbase way =
  (Array.unsafe_get pol (pbase + (way / 12)) lsr (5 * (way mod 12))) land 31

let[@inline] lru_set pol pbase way r =
  let i = pbase + (way / 12) in
  let sh = 5 * (way mod 12) in
  Array.unsafe_set pol i
    (Array.unsafe_get pol i land lnot (31 lsl sh) lor (r lsl sh))

let[@inline] qlru_get pol pbase way =
  (Array.unsafe_get pol (pbase + (way / 31)) lsr (2 * (way mod 31))) land 3

let[@inline] qlru_set pol pbase way a =
  let i = pbase + (way / 31) in
  let sh = 2 * (way mod 31) in
  Array.unsafe_set pol i
    (Array.unsafe_get pol i land lnot (3 lsl sh) lor (a lsl sh))

(* --- Construction ------------------------------------------------------- *)

let create cfg =
  if not (is_power_of_two cfg.block_bytes) then
    invalid_arg "Level.create: block_bytes must be a power of two";
  if cfg.block_bytes < Trace.word_bytes then
    invalid_arg "Level.create: block smaller than a word";
  if cfg.block_bytes > 256 then
    invalid_arg "Level.create: block wider than 64 words";
  if cfg.ways < 1 || cfg.ways > 32 then
    invalid_arg "Level.create: ways must be in 1..32";
  (match cfg.policy with
   | Tree_plru ->
     if not (is_power_of_two cfg.ways) then
       invalid_arg "Level.create: Tree-PLRU needs a power-of-two way count"
   | Lru | Mru | Qlru_h11_m1_r1_u2 | Qlru_h11_m1_r0_u0 -> ());
  if cfg.size_bytes <= 0 || cfg.size_bytes mod cfg.block_bytes <> 0 then
    invalid_arg "Level.create: size_bytes must be a multiple of block_bytes";
  let lines = cfg.size_bytes / cfg.block_bytes in
  if lines mod cfg.ways <> 0 then
    invalid_arg "Level.create: line count not divisible by ways";
  let nsets = lines / cfg.ways in
  if not (is_power_of_two nsets) then
    invalid_arg "Level.create: set count must be a power of two";
  let words_per_block = cfg.block_bytes / Trace.word_bytes in
  let pstride = stride_of cfg.policy cfg.ways in
  let pol = Array.make (nsets * pstride) 0 in
  (match cfg.policy with
   | Lru ->
     (* ranks start as the identity permutation of each set *)
     for set = 0 to nsets - 1 do
       for way = 0 to cfg.ways - 1 do
         lru_set pol (set * pstride) way way
       done
     done
   | Tree_plru | Mru | Qlru_h11_m1_r1_u2 | Qlru_h11_m1_r0_u0 -> ());
  { cfg;
    nsets;
    ways = cfg.ways;
    block_shift = log2 cfg.block_bytes;
    set_mask = nsets - 1;
    word_mask = words_per_block - 1;
    full_lo = (1 lsl min words_per_block 32) - 1;
    full_hi =
      (if words_per_block > 32 then (1 lsl (words_per_block - 32)) - 1 else 0);
    pstride;
    tags = Array.make lines (-1);
    valid_lo = Array.make lines 0;
    valid_hi = Array.make lines 0;
    dirty = Bytes.make lines '\000';
    pol;
    hint = Array.make nsets (-1);
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
    fetch_hook = None;
    writeback_hook = None
  }

let geometry t = t.cfg
let num_sets t = t.nsets
let num_ways t = t.ways

let set_fill_hook t ~on_fetch ~on_writeback =
  t.fetch_hook <- Some on_fetch;
  t.writeback_hook <- Some on_writeback

(* --- Policy operations --------------------------------------------------- *)

(* Recursive scans instead of ref cells: these run per event and per
   miss inside the chunk loop and must not allocate. *)

let rec find_way (tags : int array) base mem_block y =
  if y < 0 then -1
  else if Array.unsafe_get tags (base + y) = mem_block then y
  else find_way tags base mem_block (y - 1)

let rec first_invalid (tags : int array) base ways y =
  if y >= ways then -1
  else if Array.unsafe_get tags (base + y) = -1 then y
  else first_invalid tags base ways (y + 1)

let rec lru_rank_way pol pbase rank ways y =
  if y >= ways - 1 then y
  else if lru_get pol pbase y = rank then y
  else lru_rank_way pol pbase rank ways (y + 1)

let rec mru_clear_way word ways y =
  if y >= ways - 1 then y
  else if (word lsr y) land 1 = 0 then y
  else mru_clear_way word ways (y + 1)

let rec qlru_first pol pbase age ways y =
  if y >= ways - 1 then y
  else if qlru_get pol pbase y = age then y
  else qlru_first pol pbase age ways (y + 1)

let rec qlru_last pol pbase age ways y =
  if y <= 0 then 0
  else if qlru_get pol pbase y = age then y
  else qlru_last pol pbase age ways (y - 1)

let rec qlru_max pol pbase ways acc y =
  if y >= ways then acc
  else
    let a = qlru_get pol pbase y in
    qlru_max pol pbase ways (if a > acc then a else acc) (y + 1)

(* Promote [way] after a hit. *)
let[@hot] promote t set way =
  match t.cfg.policy with
  | Lru ->
    let pol = t.pol in
    let pbase = set * t.pstride in
    let rw = lru_get pol pbase way in
    for y = 0 to t.ways - 1 do
      let r = lru_get pol pbase y in
      if r < rw then lru_set pol pbase y (r + 1)
    done;
    lru_set pol pbase way 0
  | Tree_plru ->
    let pol = t.pol in
    let word = Array.unsafe_get pol set in
    let w = ref word in
    let i = ref (way + t.ways) in
    while !i > 1 do
      let p = !i lsr 1 in
      let bit = 1 lsl (p - 1) in
      if !i land 1 = 0 then w := !w lor bit else w := !w land lnot bit;
      i := p
    done;
    Array.unsafe_set pol set !w
  | Mru ->
    let pol = t.pol in
    let full = (1 lsl t.ways) - 1 in
    let word = Array.unsafe_get pol set lor (1 lsl way) in
    Array.unsafe_set pol set (if word = full then 1 lsl way else word)
  | Qlru_h11_m1_r1_u2 | Qlru_h11_m1_r0_u0 ->
    (* H11: ages (3,2,1,0) map to (1,1,0,0) = age lsr 1 *)
    let pol = t.pol in
    let pbase = set * t.pstride in
    qlru_set pol pbase way (qlru_get pol pbase way lsr 1)

(* Set the replacement state of [way] after a fill. *)
let[@hot] fill_state t set way =
  match t.cfg.policy with
  | Lru | Tree_plru | Mru -> promote t set way
  | Qlru_h11_m1_r1_u2 ->
    (* U2: every other line ages by one (saturating) on each fill *)
    let pol = t.pol in
    let pbase = set * t.pstride in
    for y = 0 to t.ways - 1 do
      if y <> way then begin
        let a = qlru_get pol pbase y in
        if a < 3 then qlru_set pol pbase y (a + 1)
      end
    done;
    qlru_set pol pbase way 1
  | Qlru_h11_m1_r0_u0 ->
    (* M1: insert at age 1 *)
    qlru_set t.pol (set * t.pstride) way 1

(* Pick the way to fill on a miss in [set]: the lowest-indexed
   invalid way if any, otherwise the policy's victim.  QLRU mutates
   the set's ages when it has to normalize them. *)
let[@hot] choose_victim t set =
  let base = set * t.ways in
  let inv = first_invalid t.tags base t.ways 0 in
  if inv >= 0 then inv
  else
    match t.cfg.policy with
    | Lru -> lru_rank_way t.pol (set * t.pstride) (t.ways - 1) t.ways 0
    | Tree_plru ->
      let word = Array.unsafe_get t.pol set in
      let i = ref 1 in
      while !i < t.ways do
        i := (!i lsl 1) lor ((word lsr (!i - 1)) land 1)
      done;
      !i - t.ways
    | Mru -> mru_clear_way (Array.unsafe_get t.pol set) t.ways 0
    | Qlru_h11_m1_r1_u2 | Qlru_h11_m1_r0_u0 ->
      let pol = t.pol in
      let pbase = set * t.pstride in
      let maxage = qlru_max pol pbase t.ways 0 0 in
      let deficit = 3 - maxage in
      if deficit > 0 then
        for y = 0 to t.ways - 1 do
          qlru_set pol pbase y (qlru_get pol pbase y + deficit)
        done;
      (match t.cfg.policy with
       | Qlru_h11_m1_r0_u0 -> qlru_first pol pbase 3 t.ways 0
       | Lru | Tree_plru | Mru | Qlru_h11_m1_r1_u2 ->
         qlru_last pol pbase 3 t.ways (t.ways - 1))

(* --- Per-event access (the differential oracle) ------------------------- *)

(* One access: the way scan, then the §4 block model with the
   policy's promote or fill.  Hook order on a dirty-victim miss is
   writeback first, then fetch — the order the chunk loops emit
   their miss streams in. *)
let[@hot] access t addr kind phase =
  let mem_block = addr lsr t.block_shift in
  let set = mem_block land t.set_mask in
  let base = set * t.ways in
  let word = (addr lsr 2) land t.word_mask in
  let high = word >= 32 in
  let wbit = 1 lsl (word land 31) in
  let mutator =
    match (phase : Trace.phase) with
    | Trace.Mutator -> true
    | Trace.Collector -> false
  in
  if mutator then t.refs <- t.refs + 1
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
  let way = find_way t.tags base mem_block (t.ways - 1) in
  if way >= 0 then begin
    let li = base + way in
    promote t set way;
    Array.unsafe_set t.hint set li;
    let valid = if high then t.valid_hi else t.valid_lo in
    if Array.unsafe_get valid li land wbit <> 0 then begin
      if is_store then Bytes.unsafe_set t.dirty li '\001'
    end
    else if is_store then begin
      Array.unsafe_set valid li (Array.unsafe_get valid li lor wbit);
      Bytes.unsafe_set t.dirty li '\001'
    end
    else begin
      (* read of an unvalidated word in a resident block: fetch all *)
      if mutator then begin
        t.misses <- t.misses + 1;
        t.fetches <- t.fetches + 1
      end
      else begin
        t.collector_misses <- t.collector_misses + 1;
        t.collector_fetches <- t.collector_fetches + 1
      end;
      Array.unsafe_set t.valid_lo li t.full_lo;
      Array.unsafe_set t.valid_hi li t.full_hi;
      match t.fetch_hook with
      | None -> ()
      | Some hook -> hook (mem_block lsl t.block_shift) phase
    end
  end
  else begin
    let alloc =
      mutator
      && (match (kind : Trace.kind) with
          | Trace.Alloc_write -> true
          | Trace.Read | Trace.Write -> false)
    in
    if mutator then begin
      t.misses <- t.misses + 1;
      if alloc then t.alloc_misses <- t.alloc_misses + 1
    end
    else t.collector_misses <- t.collector_misses + 1;
    let v = choose_victim t set in
    let li = base + v in
    let old = Array.unsafe_get t.tags li in
    if old >= 0 && Bytes.unsafe_get t.dirty li = '\001' then begin
      t.writebacks <- t.writebacks + 1;
      if not mutator then t.collector_writebacks <- t.collector_writebacks + 1;
      Bytes.unsafe_set t.dirty li '\000';
      (match t.writeback_hook with
       | None -> ()
       | Some hook -> hook (old lsl t.block_shift) phase)
    end;
    Array.unsafe_set t.tags li mem_block;
    fill_state t set v;
    Array.unsafe_set t.hint set li;
    let wv =
      (match t.cfg.write_miss_policy with
       | Cache.Write_validate -> true
       | Cache.Fetch_on_write -> false)
      && mutator (* collector stores always fetch on write *)
    in
    if is_store && wv then begin
      if high then begin
        Array.unsafe_set t.valid_lo li 0;
        Array.unsafe_set t.valid_hi li wbit
      end
      else begin
        Array.unsafe_set t.valid_lo li wbit;
        Array.unsafe_set t.valid_hi li 0
      end;
      Bytes.unsafe_set t.dirty li '\001'
    end
    else begin
      if mutator then t.fetches <- t.fetches + 1
      else t.collector_fetches <- t.collector_fetches + 1;
      (match t.fetch_hook with
       | None -> ()
       | Some hook -> hook (mem_block lsl t.block_shift) phase);
      Array.unsafe_set t.valid_lo li t.full_lo;
      Array.unsafe_set t.valid_hi li t.full_hi;
      if is_store then Bytes.unsafe_set t.dirty li '\001'
    end
  end

(* Install a whole block written back from the level above: counts a
   reference and a write, never fetches, leaves the block valid and
   dirty, plus the policy update a real level would make.  This is
   how write-backs from the level above arrive, in the hooked oracle
   and in the fused miss-stream drain alike. *)
let[@hot] write_back t addr phase =
  let mem_block = addr lsr t.block_shift in
  let set = mem_block land t.set_mask in
  let base = set * t.ways in
  let mutator =
    match (phase : Trace.phase) with
    | Trace.Mutator -> true
    | Trace.Collector -> false
  in
  if mutator then t.refs <- t.refs + 1
  else t.collector_refs <- t.collector_refs + 1;
  t.writes <- t.writes + 1;
  if not mutator then t.collector_writes <- t.collector_writes + 1;
  let way = find_way t.tags base mem_block (t.ways - 1) in
  let li =
    if way >= 0 then begin
      promote t set way;
      Array.unsafe_set t.hint set (base + way);
      base + way
    end
    else begin
      if mutator then t.misses <- t.misses + 1
      else t.collector_misses <- t.collector_misses + 1;
      let v = choose_victim t set in
      let li = base + v in
      let old = Array.unsafe_get t.tags li in
      if old >= 0 && Bytes.unsafe_get t.dirty li = '\001' then begin
        t.writebacks <- t.writebacks + 1;
        if not mutator then
          t.collector_writebacks <- t.collector_writebacks + 1;
        Bytes.unsafe_set t.dirty li '\000';
        (match t.writeback_hook with
         | None -> ()
         | Some hook -> hook (old lsl t.block_shift) phase)
      end;
      Array.unsafe_set t.tags li mem_block;
      fill_state t set v;
      Array.unsafe_set t.hint set li;
      li
    end
  in
  Array.unsafe_set t.valid_lo li t.full_lo;
  Array.unsafe_set t.valid_hi li t.full_hi;
  Bytes.unsafe_set t.dirty li '\001'

let sink t = { Trace.access = (fun addr kind phase -> access t addr kind phase) }

(* --- Chunk loop with miss-stream emission -------------------------------- *)

(* The miss stream reuses the Chunk codec with the spare kind code 3
   marking a block write-back: kind 0 words are block fetches the
   level below must service with [access]-style reads, kind 3 words
   are dirty evictions it must install with [write_back].  One input
   event appends at most two words (victim write-back, then fetch),
   in exactly the order the per-event hooks would have fired, so
   draining a sealed buffer through the next level reproduces the
   hooked path's refill traffic word for word. *)

let wb_code = 3

(* The tight span loop under [run_chunk]: consumes consecutive events
   that hit the set's most recently resolved line (see [hint]) with a
   word the access can settle in place, and returns the index of the
   first event it could not consume — hint miss, write-back word,
   high word of a wide block, or a read of an unvalidated word — for
   the generic loop to resolve.  Only called for policies whose
   promote is idempotent on repeated hits, so the pending promote is
   provably a no-op and the whole event touches nothing but valid and
   dirty bits.

   Kept small and first-order on purpose: without cross-module
   inlining the register allocator can only keep the per-event state
   in registers if the live set is tiny, which is worth ~3x on this
   loop.  [geo] packs block shift (bits 5:0, already offset by the
   3 codec bits), word mask (13:6), way count (19:14) and set mask
   (the rest) so the geometry rides in one register.  [acc]
   accumulates collector refs
   (bits 20:0), stores (41:21) and collector stores (62:42); callers
   bound spans to well under 2^21 events so the fields cannot
   overflow, and unpack into the real counters when the span ends.
   The three contributions depend only on the event word's phase and
   kind bits, so each iteration adds one pretabulated constant
   indexed by [w land 7] instead of recomputing the packing. *)
let acc_tbl =
  Array.init 8 (fun idx ->
      let phase = idx land 1 in
      let kcode = idx lsr 1 in
      (* store indicator; only meaningful for kinds 0..2, and kind 3
         (write-back) words bail out before touching [acc] *)
      let st = if kcode >= 3 then 0 else (kcode + 1) lsr 1 in
      phase + (st lsl 21) + ((st land phase) lsl 42))

let[@hot] fast_span (buf : Chunk.buf) i0 limit (hint : int array)
    (tags : int array) (valid_lo : int array) (dirty : Bytes.t)
    (pol : int array) (tbl : int array) geo (acc_cell : int array) =
  let shift3 = geo land 63 in
  let wmask = (geo lsr 6) land 255 in
  let ways = (geo lsr 14) land 63 in
  let smask = geo lsr 20 in
  (* [pol] is passed only for Tree-PLRU levels (empty otherwise): for
     those the span also resolves hint misses that are still hits, by
     scanning and promoting in place — the event itself is then
     consumed by the next iteration's hint probe. *)
  let scan_ok = Array.length pol > 0 in
  let i = ref i0 in
  let acc = ref 0 in
  (* Bailing sets [stop] to the offending index and jumps [i] past
     [limit], so the loop condition stays a single compare against an
     immutable bound; a span that drains to [limit] leaves [stop]
     there, which is also the right answer. *)
  let stop = ref limit in
  while !i < limit do
    let w = Bigarray.Array1.unsafe_get buf !i in
    let mem_block = w lsr shift3 in
    let li = Array.unsafe_get hint (mem_block land smask) in
    if li >= 0 && Array.unsafe_get tags li = mem_block then begin
      let kcode = (w lsr 1) land 3 in
      let word = (w lsr 5) land wmask in
      let st = (kcode + 1) lsr 1 in
      let vword =
        Array.unsafe_get valid_lo li lor ((1 lsl word) land (-st))
      in
      if
        (* a write-back word must take the install path even when its
           block matches, and [st] above is garbage for kind 3 *)
        kcode = wb_code
        || word >= 32
        || vword land (1 lsl word) = 0
      then begin
        (* write-back, wide-block high word, or a read of an
           unvalidated word *)
        stop := !i;
        i := max_int
      end
      else begin
        Array.unsafe_set valid_lo li vword;
        Bytes.unsafe_set dirty li
          (Char.unsafe_chr (Char.code (Bytes.unsafe_get dirty li) lor st));
        acc := !acc + Array.unsafe_get tbl (w land 7);
        incr i
      end
    end
    else if (not scan_ok) || (w lsr 1) land 3 = wb_code then begin
      stop := !i;
      i := max_int
    end
    else begin
      let set = mem_block land smask in
      let base = set * ways in
      let y = ref (ways - 1) in
      while
        !y >= 0 && Array.unsafe_get tags (base + !y) <> mem_block
      do
        decr y
      done;
      let way = !y in
      if way < 0 then begin
        stop := !i;
        i := max_int
      end
      else begin
        (* A hit beside the hint: record it and promote here (the
           Tree-PLRU walk below), then loop without consuming the
           event — the reloaded probe settles it as a hint hit, and
           the skipped promote there is the one just applied. *)
        Array.unsafe_set hint set (base + way);
        let wd = ref (Array.unsafe_get pol set) in
        let n = ref (way + ways) in
        while !n > 1 do
          let p = !n lsr 1 in
          let bit = 1 lsl (p - 1) in
          if !n land 1 = 0 then wd := !wd lor bit
          else wd := !wd land lnot bit;
          n := p
        done;
        Array.unsafe_set pol set !wd
      end
    end
  done;
  Array.unsafe_set acc_cell 0 !acc;
  !stop

(* [run_sets] is the set-associative hot loop behind both entry
   points; when [emit] is false [out] is never touched.  Input words
   with kind code 3 are consumed as write-backs, so a level's output
   stream can be fed straight into the next level's [run_chunk]. *)
let[@hot] run_sets t (buf : Chunk.buf) off len emit (out : Chunk.buf) opos =
  let tags = t.tags
  and valid_lo = t.valid_lo
  and valid_hi = t.valid_hi
  and dirty = t.dirty
  and pol = t.pol in
  let block_shift = t.block_shift
  and set_mask = t.set_mask
  and word_mask = t.word_mask
  and full_lo = t.full_lo
  and full_hi = t.full_hi
  and ways = t.ways in
  let shift3 = block_shift + 3 in
  let plru =
    match t.cfg.policy with
    | Tree_plru -> true
    | Lru | Mru | Qlru_h11_m1_r1_u2 | Qlru_h11_m1_r0_u0 -> false
  in
  (* Promoting a line that was promoted by the immediately preceding
     event is a no-op for LRU, Tree-PLRU and MRU; QLRU ages keep
     decaying on repeated hits, so it must still run there.  The way
     count must also fit [geo]'s 6-bit field for the span loop to
     decode its geometry, which shuts the fast path off for unusually
     wide (e.g. fully associative) configurations. *)
  let promote_idem =
    ways <= 63
    &&
    match t.cfg.policy with
    | Lru | Tree_plru | Mru -> true
    | Qlru_h11_m1_r1_u2 | Qlru_h11_m1_r0_u0 -> false
  in
  let write_validate =
    match t.cfg.write_miss_policy with
    | Cache.Write_validate -> true
    | Cache.Fetch_on_write -> false
  in
  let collector_refs = ref 0
  and misses = ref 0
  and collector_misses = ref 0
  and alloc_misses = ref 0
  and fetches = ref 0
  and collector_fetches = ref 0
  and writebacks = ref 0
  and collector_writebacks = ref 0
  and writes = ref 0
  and collector_writes = ref 0 in
  let op = ref opos in
  let hint = t.hint in
  let limit = off + len in
  let geo =
    shift3 lor (word_mask lsl 6) lor (ways lsl 14) lor (set_mask lsl 20)
  in
  let span_pol = if plru then pol else [||] in
  let acc_cell = [| 0 |] in
  let ip = ref off in
  while !ip < limit do
    if promote_idem then begin
      (* spans stay far below 2^21 events, so the packed counter
         fields in [acc_cell] cannot overflow *)
      let cap =
        if limit - !ip > 1_000_000 then !ip + 1_000_000 else limit
      in
      let j =
        fast_span buf !ip cap hint tags valid_lo dirty span_pol acc_tbl geo
          acc_cell
      in
      let a = Array.unsafe_get acc_cell 0 in
      collector_refs := !collector_refs + (a land 0x1F_FFFF);
      writes := !writes + ((a lsr 21) land 0x1F_FFFF);
      collector_writes := !collector_writes + (a lsr 42);
      ip := j
    end;
    if !ip < limit then begin
    let i = !ip in
    incr ip;
    let w = Bigarray.Array1.unsafe_get buf i in
    let kcode = (w lsr 1) land 3 in
    let mem_block = w lsr shift3 in
    collector_refs := !collector_refs + (w land 1);
    let set = mem_block land set_mask in
    let li = Array.unsafe_get hint set in
    (* Write-back words (kcode 3) must take the install path below;
       oring an impossible high bit into the probe makes their tag
       compare fail without a separate branch. *)
    let probe = mem_block lor ((kcode land (kcode lsr 1)) lsl 60) in
    if li >= 0 && Array.unsafe_get tags li = probe then begin
      (* Hit in the set's most recently resolved line: the tag match
         settles the scan, and the promote this hit owes is the one
         that resolution already applied — a no-op unless the policy
         decays on repeated hits. *)
      if not promote_idem then promote t set (li - (set * ways));
      let word = (w lsr 5) land word_mask in
      let high = word >= 32 in
      let wbit = 1 lsl (word land 31) in
      (* kcode is 0..2 here, so [(kcode + 1) lsr 1] is 1 for the two
         store kinds; anding with the phase bit counts collector
         stores without a branch. *)
      let st = (kcode + 1) lsr 1 in
      writes := !writes + st;
      collector_writes := !collector_writes + (st land w);
      (* A store validates the word and dirties the line whether or
         not the word was already valid, so both effects apply
         unconditionally under a [-st] mask; the only branch left on
         this path is the rare read of an unvalidated word. *)
      let valid = if high then valid_hi else valid_lo in
      let vword = Array.unsafe_get valid li lor (wbit land (-st)) in
      Array.unsafe_set valid li vword;
      Bytes.unsafe_set dirty li
        (Char.unsafe_chr (Char.code (Bytes.unsafe_get dirty li) lor st));
      if vword land wbit = 0 then begin
        if w land 1 = 0 then begin
          incr misses;
          incr fetches
        end
        else begin
          incr collector_misses;
          incr collector_fetches
        end;
        Array.unsafe_set valid_lo li full_lo;
        Array.unsafe_set valid_hi li full_hi;
        if emit then begin
          Bigarray.Array1.unsafe_set out !op
            ((mem_block lsl shift3) lor (w land 1));
          incr op
        end
      end
    end
    else begin
    let mutator = w land 1 = 0 in
    let base = set * ways in
    let way =
      let y = ref (ways - 1) in
      while !y >= 0 && Array.unsafe_get tags (base + !y) <> mem_block do
        decr y
      done;
      !y
    in
    if kcode = wb_code then begin
      (* whole-block write-back from the level above *)
      incr writes;
      if not mutator then incr collector_writes;
      let li =
        if way >= 0 then begin
          promote t set way;
          Array.unsafe_set hint set (base + way);
          base + way
        end
        else begin
          if mutator then incr misses else incr collector_misses;
          let v = choose_victim t set in
          let li = base + v in
          let old = Array.unsafe_get tags li in
          if old >= 0 && Bytes.unsafe_get dirty li = '\001' then begin
            incr writebacks;
            if not mutator then incr collector_writebacks;
            Bytes.unsafe_set dirty li '\000';
            if emit then begin
              Bigarray.Array1.unsafe_set out !op
                ((old lsl shift3) lor (wb_code lsl 1) lor (w land 1));
              incr op
            end
          end;
          Array.unsafe_set tags li mem_block;
          fill_state t set v;
          Array.unsafe_set hint set li;
          li
        end
      in
      Array.unsafe_set valid_lo li full_lo;
      Array.unsafe_set valid_hi li full_hi;
      Bytes.unsafe_set dirty li '\001'
    end
    else begin
      let word = (w lsr 5) land word_mask in
      let high = word >= 32 in
      let wbit = 1 lsl (word land 31) in
      let is_store = kcode <> 0 in
      if is_store then begin
        incr writes;
        if not mutator then incr collector_writes
      end;
      if way >= 0 then begin
        let li = base + way in
        Array.unsafe_set hint set li;
        if plru then begin
          (* Tree-PLRU promote, inlined: point every ancestor node of
             [way] away from it (pstride is 1, so pol.(set)). *)
          let wd = ref (Array.unsafe_get pol set) in
          let n = ref (way + ways) in
          while !n > 1 do
            let p = !n lsr 1 in
            let bit = 1 lsl (p - 1) in
            if !n land 1 = 0 then wd := !wd lor bit
            else wd := !wd land lnot bit;
            n := p
          done;
          Array.unsafe_set pol set !wd
        end
        else promote t set way;
        let valid = if high then valid_hi else valid_lo in
        if Array.unsafe_get valid li land wbit <> 0 then begin
          if is_store then Bytes.unsafe_set dirty li '\001'
        end
        else if is_store then begin
          Array.unsafe_set valid li (Array.unsafe_get valid li lor wbit);
          Bytes.unsafe_set dirty li '\001'
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
          Array.unsafe_set valid_lo li full_lo;
          Array.unsafe_set valid_hi li full_hi;
          if emit then begin
            Bigarray.Array1.unsafe_set out !op
              ((mem_block lsl shift3) lor (w land 1));
            incr op
          end
        end
      end
      else begin
        if mutator then begin
          incr misses;
          if kcode = 2 then incr alloc_misses
        end
        else incr collector_misses;
        let v = choose_victim t set in
        let li = base + v in
        let old = Array.unsafe_get tags li in
        if old >= 0 && Bytes.unsafe_get dirty li = '\001' then begin
          incr writebacks;
          if not mutator then incr collector_writebacks;
          Bytes.unsafe_set dirty li '\000';
          if emit then begin
            Bigarray.Array1.unsafe_set out !op
              ((old lsl shift3) lor (wb_code lsl 1) lor (w land 1));
            incr op
          end
        end;
        Array.unsafe_set tags li mem_block;
        fill_state t set v;
        Array.unsafe_set hint set li;
        if is_store && write_validate && mutator then begin
          if high then begin
            Array.unsafe_set valid_lo li 0;
            Array.unsafe_set valid_hi li wbit
          end
          else begin
            Array.unsafe_set valid_lo li wbit;
            Array.unsafe_set valid_hi li 0
          end;
          Bytes.unsafe_set dirty li '\001'
        end
        else begin
          if mutator then incr fetches else incr collector_fetches;
          Array.unsafe_set valid_lo li full_lo;
          Array.unsafe_set valid_hi li full_hi;
          if emit then begin
            Bigarray.Array1.unsafe_set out !op
              ((mem_block lsl shift3) lor (w land 1));
            incr op
          end;
          if is_store then Bytes.unsafe_set dirty li '\001'
        end
      end
    end
    end
    end
  done;
  t.refs <- t.refs + (len - !collector_refs);
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
  !op

(* The direct-mapped loop: with one way the set index is the line
   index, so there is no way scan, no hint and no victim choice — the
   §4 cache of the paper, with the geometry in locals and the counters
   accumulated in registers and committed once per chunk.  Every
   transition is [access]'s (and [write_back]'s for kind code 3, whose
   block address always falls on the store paths below) with
   [way = 0].  The loop makes no calls, so nothing live across it is
   spilled around one; the one-way policy updates are inlined instead
   ([pstride] is 1 for every policy at one way, so a set's word is
   [pol.(idx)]):

   - LRU and Tree-PLRU never change a one-way set: the one rank is
     already 0 and the tree has no nodes.
   - MRU ([polk] 1) sets the way's bit on every resolution; with one
     way the wrap-around reset leaves the same word.
   - QLRU ([polk] 2) halves the age on a hit (H11) and inserts at age
     1 on a fill (M1).  The fill overwrites the only age a victim
     normalization would raise, and U2's aging of the other lines has
     no other lines to age.

   With [attr] the loop also attributes (see [access_chunk_attr]):
   every aggregate counter bump has a bump of the event's (region x
   phase) slot in [prof] beside it, which is what makes the per-slot
   sums equal the aggregate counters exactly.  [base] is the
   recording-global index of [buf.(off)], and [cur]'s side-table logs
   are consumed forward from it.  Attribution is defined for recorded
   events (kind codes 0-2) only.

   The loop is inlined three times: for the sweep grid with [emit],
   [polk] and [attr] the constants false, 0 and false, which the
   compiler folds away (measured ~10% faster than testing them per
   event); for miss streams, MRU and QLRU; and for attribution. *)

(* [polk]: which one-way policy word moves (see above). *)
let policy_kind t =
  match t.cfg.policy with
  | Lru | Tree_plru -> 0
  | Mru -> 1
  | Qlru_h11_m1_r1_u2 | Qlru_h11_m1_r0_u0 -> 2

let[@inline] promote_direct pol polk idx =
  let a = Array.unsafe_get pol idx in
  Array.unsafe_set pol idx
    (if polk = 1 then a lor 1 else a land lnot 3 lor ((a land 3) lsr 1))

let[@inline] fill_direct pol polk idx =
  let a = Array.unsafe_get pol idx in
  Array.unsafe_set pol idx (if polk = 1 then a lor 1 else a land lnot 3 lor 1)

let[@inline] bump (a : int array) i =
  Array.unsafe_set a i (Array.unsafe_get a i + 1)

(* The {!Attr} region of a byte address under one region map.  The
   [int] annotation matters: unannotated, the compares stay
   polymorphic and cost a C call each even once inlined. *)
let[@inline] region_of (addr : int) stack_lo dyn_lo to_lo to_hi from_lo
    from_hi =
  if addr < stack_lo then 0
  else if addr < dyn_lo then 1
  else if addr >= to_lo && addr < to_hi then 2
  else if addr >= from_lo && addr < from_hi then 3
  else 4

(* A miss at event [p] into the (address x time) heat grid and the
   (time x region) strip of a profile, its fields passed unpacked. *)
let[@inline] bump_heat heat heat_rows heat_cols row_shift col_shift
    region_time addr p region =
  let r0 = addr lsr row_shift in
  let r = if r0 >= heat_rows then heat_rows - 1 else r0 in
  let c0 = p lsr col_shift in
  let c = if c0 >= heat_cols then heat_cols - 1 else c0 in
  bump heat ((r * heat_cols) + c);
  bump region_time ((c * 5) + region)

(* [buf]'s concrete Bigarray type must be visible here: an unannotated
   parameter stays polymorphic during inference, and the compiler then
   emits a generic caml_ba_get_1 C call per event instead of a direct
   load (a measured ~2.5x slowdown of this loop). *)
let[@inline] direct_loop t (buf : Chunk.buf) off len emit polk
    (out : Chunk.buf) opos attr (cur : Attr.cursor) (prof : Attr.profile)
    base =
  let tags = t.tags
  and valid_lo = t.valid_lo
  and valid_hi = t.valid_hi
  and dirty = t.dirty
  and pol = t.pol in
  let block_shift = t.block_shift
  and index_mask = t.set_mask
  and word_mask = t.word_mask
  and full_lo = t.full_lo
  and full_hi = t.full_hi in
  let shift3 = block_shift + 3 in
  let write_validate =
    match t.cfg.write_miss_policy with
    | Cache.Write_validate -> true
    | Cache.Fetch_on_write -> false
  in
  let collector_refs = ref 0
  and misses = ref 0
  and collector_misses = ref 0
  and alloc_misses = ref 0
  and fetches = ref 0
  and collector_fetches = ref 0
  and writebacks = ref 0
  and collector_writebacks = ref 0
  and writes = ref 0
  and collector_writes = ref 0 in
  let op = ref opos in
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
  for i = off to off + len - 1 do
    let w = Bigarray.Array1.unsafe_get buf i in
    let kcode = (w lsr 1) land 3 in
    let mutator = w land 1 = 0 in
    let mem_block = w lsr shift3 in
    let idx = mem_block land index_mask in
    let word = (w lsr 5) land word_mask in
    let high = word >= 32 in
    let wbit = 1 lsl (word land 31) in
    let is_store = kcode <> 0 in
    let p = base + i - off in
    (* the event's (region x phase) slot, once the cursor has caught
       up with it *)
    let slot =
      if attr then begin
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
        let region =
          region_of (w lsr 3) !stack_lo !dyn_lo !to_lo !to_hi !from_lo
            !from_hi
        in
        let slot = (region lsl 1) lor (w land 1) in
        bump p_refs slot;
        slot
      end
      else 0
    in
    if not mutator then incr collector_refs;
    if is_store then begin
      incr writes;
      if not mutator then incr collector_writes;
      if attr then begin
        bump p_writes slot;
        if kcode = 2 && mutator then bump site_aw !cur_site
      end
    end;
    if Array.unsafe_get tags idx = mem_block then begin
      if polk <> 0 then promote_direct pol polk idx;
      let valid = if high then valid_hi else valid_lo in
      if Array.unsafe_get valid idx land wbit <> 0 then begin
        if is_store then begin
          Bytes.unsafe_set dirty idx '\001';
          if kcode = wb_code then begin
            Array.unsafe_set valid_lo idx full_lo;
            Array.unsafe_set valid_hi idx full_hi
          end
        end
      end
      else if is_store then begin
        if kcode = wb_code then begin
          Array.unsafe_set valid_lo idx full_lo;
          Array.unsafe_set valid_hi idx full_hi
        end
        else Array.unsafe_set valid idx (Array.unsafe_get valid idx lor wbit);
        Bytes.unsafe_set dirty idx '\001'
      end
      else begin
        (* read of an unvalidated word in a resident block: fetch all *)
        if mutator then begin
          incr misses;
          incr fetches
        end
        else begin
          incr collector_misses;
          incr collector_fetches
        end;
        if attr then begin
          bump p_misses slot;
          bump p_fetches slot;
          bump_heat heat heat_rows heat_cols row_shift col_shift region_time
            (w lsr 3) p (slot lsr 1)
        end;
        Array.unsafe_set valid_lo idx full_lo;
        Array.unsafe_set valid_hi idx full_hi;
        if emit then begin
          Bigarray.Array1.unsafe_set out !op
            ((mem_block lsl shift3) lor (w land 1));
          incr op
        end
      end
    end
    else if kcode = wb_code then begin
      (* whole-block write-back from the level above *)
      let old = Array.unsafe_get tags idx in
      if mutator then incr misses else incr collector_misses;
      if old >= 0 && Bytes.unsafe_get dirty idx = '\001' then begin
        incr writebacks;
        if not mutator then incr collector_writebacks;
        if emit then begin
          Bigarray.Array1.unsafe_set out !op
            ((old lsl shift3) lor (wb_code lsl 1) lor (w land 1));
          incr op
        end
      end;
      Array.unsafe_set tags idx mem_block;
      if polk <> 0 then fill_direct pol polk idx;
      Array.unsafe_set valid_lo idx full_lo;
      Array.unsafe_set valid_hi idx full_hi;
      Bytes.unsafe_set dirty idx '\001'
    end
    else begin
      if mutator then begin
        incr misses;
        if kcode = 2 then begin
          incr alloc_misses;
          if attr then begin
            bump p_alloc slot;
            bump site_am !cur_site
          end
        end
      end
      else incr collector_misses;
      if attr then begin
        bump p_misses slot;
        bump_heat heat heat_rows heat_cols row_shift col_shift region_time
            (w lsr 3) p (slot lsr 1)
      end;
      let old = Array.unsafe_get tags idx in
      if old >= 0 && Bytes.unsafe_get dirty idx = '\001' then begin
        incr writebacks;
        if not mutator then incr collector_writebacks;
        (* a write-back belongs to the evicted block's region under the
           map in force now *)
        if attr then
          bump p_writebacks
            ((region_of (old lsl block_shift) !stack_lo !dyn_lo !to_lo
                !to_hi !from_lo !from_hi
             lsl 1)
            lor (w land 1));
        Bytes.unsafe_set dirty idx '\000';
        if emit then begin
          Bigarray.Array1.unsafe_set out !op
            ((old lsl shift3) lor (wb_code lsl 1) lor (w land 1));
          incr op
        end
      end;
      Array.unsafe_set tags idx mem_block;
      if polk <> 0 then fill_direct pol polk idx;
      if is_store && write_validate && mutator then begin
        (* allocate the line, validate just this word, fetch nothing *)
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
        if attr then bump p_fetches slot;
        Array.unsafe_set valid_lo idx full_lo;
        Array.unsafe_set valid_hi idx full_hi;
        if emit then begin
          Bigarray.Array1.unsafe_set out !op
            ((mem_block lsl shift3) lor (w land 1));
          incr op
        end;
        if is_store then Bytes.unsafe_set dirty idx '\001'
      end
    end
  done;
  t.refs <- t.refs + (len - !collector_refs);
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
  if attr then begin
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
  end;
  !op

(* The attribution arguments of the loops that do not attribute: never
   written.  Built from literals rather than [Attr.create],
   [Attr.cursor] and [Attr.profile_create], whose allocations the
   hot-path lint would otherwise charge to every chunk. *)
let no_cursor : Attr.cursor =
  { Attr.ctab =
      { Attr.n_epochs = 0; epoch_pos = [||]; epoch_stack_lo = [||];
        epoch_dyn_lo = [||]; epoch_to_lo = [||]; epoch_to_hi = [||];
        epoch_from_lo = [||]; epoch_from_hi = [||]; n_runs = 0;
        run_pos = [||]; run_site = [||]; n_sites = 0; site_names = [||];
        site_ids = Hashtbl.create 1; sites_clipped = false };
    ei = -1; si = 0; cur_site = 0; stack_lo = 0; dyn_lo = 0; to_lo = 0;
    to_hi = 0; from_lo = 0; from_hi = 0 }

let no_profile : Attr.profile =
  { Attr.refs = [||]; misses = [||]; alloc_misses = [||]; fetches = [||];
    writebacks = [||]; writes = [||]; site_alloc_misses = [||];
    site_alloc_writes = [||]; heat = [||]; heat_rows = 1; heat_cols = 1;
    heat_row_shift = 0; heat_col_shift = 0; region_time = [||];
    chunks_seen = 0; chunks_attributed = 0; events_attributed = 0;
    sample_every = 1 }

let[@hot] run_direct t buf off len emit out opos =
  let polk = policy_kind t in
  if emit || polk <> 0 then
    direct_loop t buf off len emit polk out opos false no_cursor no_profile 0
  else
    direct_loop t buf off len false 0 out opos false no_cursor no_profile 0

(* The chunk step behind both entry points: the geometry alone picks
   the loop. *)
let[@hot] run_chunk t buf off len emit out opos =
  if t.ways = 1 then run_direct t buf off len emit out opos
  else run_sets t buf off len emit out opos

(* Attribution must not reorder or change the simulation, so it is the
   direct-mapped loop itself with the attributing code switched on. *)
let[@hot] access_chunk_attr t (cur : Attr.cursor) (prof : Attr.profile)
    ~base (buf : Chunk.buf) off len =
  if off < 0 || len < 0 || off + len > Bigarray.Array1.dim buf then
    invalid_arg "Level.access_chunk_attr";
  if base < 0 then invalid_arg "Level.access_chunk_attr: negative base";
  if t.ways <> 1 then
    invalid_arg "Level.access_chunk_attr: the level is not direct-mapped";
  if Option.is_some t.fetch_hook || Option.is_some t.writeback_hook then
    invalid_arg "Level.access_chunk_attr: fill hooks are installed";
  ignore
    (direct_loop t buf off len false (policy_kind t) Chunk.empty 0 true cur
       prof base
      : int)

let check_range name (buf : Chunk.buf) off len =
  if off < 0 || len < 0 || off + len > Bigarray.Array1.dim buf then
    invalid_arg name

let hooked t =
  Option.is_some t.fetch_hook || Option.is_some t.writeback_hook

let access_chunk t buf off len =
  check_range "Level.access_chunk" buf off len;
  if hooked t then
    (* hooks fire per event, so take the per-event path to keep their
       order exact *)
    for i = off to off + len - 1 do
      let w = Bigarray.Array1.unsafe_get buf i in
      let phase = if w land 1 = 0 then Trace.Mutator else Trace.Collector in
      if (w lsr 1) land 3 = wb_code then write_back t (w lsr 3) phase
      else
        let addr, kind, _ = Chunk.unpack w in
        access t addr kind phase
    done
  else ignore (run_chunk t buf off len false Chunk.empty 0 : int)

let access_chunk_emit t buf off len ~out ~pos =
  check_range "Level.access_chunk_emit" buf off len;
  if hooked t then
    invalid_arg "Level.access_chunk_emit: fill hooks are installed";
  if pos < 0 || pos + (2 * len) > Bigarray.Array1.dim out then
    invalid_arg "Level.access_chunk_emit: output buffer too small";
  run_chunk t buf off len true out pos

(* --- Stats -------------------------------------------------------------- *)

let stats t : Cache.stats =
  { Cache.refs = t.refs;
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

let reset_stats t =
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
  t.collector_writes <- 0

(* --- Prefix sharing ------------------------------------------------------ *)

(* What [Sweep] groups levels by: a level's future is a function of its
   config, its line and policy state and the ordered stream it
   receives, so two [same] levels fed one stream stay [same], and
   [copy] can stand in for replaying the follower.  Field by field:
   the lint forbids polymorphic compare in this module. *)
let config_equal (a : config) (b : config) =
  a.size_bytes = b.size_bytes
  && a.block_bytes = b.block_bytes
  && a.ways = b.ways
  && policy_code a.policy = policy_code b.policy
  &&
  match (a.write_miss_policy, b.write_miss_policy) with
  | Cache.Write_validate, Cache.Write_validate
  | Cache.Fetch_on_write, Cache.Fetch_on_write -> true
  | (Cache.Write_validate | Cache.Fetch_on_write), _ -> false

let same a b =
  (not (hooked a || hooked b))
  && config_equal a.cfg b.cfg
  && a.refs = b.refs
  && a.collector_refs = b.collector_refs
  && a.misses = b.misses
  && a.collector_misses = b.collector_misses
  && a.alloc_misses = b.alloc_misses
  && a.fetches = b.fetches
  && a.collector_fetches = b.collector_fetches
  && a.writebacks = b.writebacks
  && a.collector_writebacks = b.collector_writebacks
  && a.writes = b.writes
  && a.collector_writes = b.collector_writes
  && Array.for_all2 Int.equal a.tags b.tags
  && Array.for_all2 Int.equal a.valid_lo b.valid_lo
  && Array.for_all2 Int.equal a.valid_hi b.valid_hi
  && Bytes.equal a.dirty b.dirty
  && Array.for_all2 Int.equal a.pol b.pol

(* The hint is copied with the state it describes, so it stays a
   sound accelerator for [dst]. *)
let copy ~src dst =
  if not (config_equal src.cfg dst.cfg) then
    invalid_arg "Level.copy: the levels' configurations differ";
  let blit a b = Array.blit a 0 b 0 (Array.length a) in
  blit src.tags dst.tags;
  blit src.valid_lo dst.valid_lo;
  blit src.valid_hi dst.valid_hi;
  Bytes.blit src.dirty 0 dst.dirty 0 (Bytes.length src.dirty);
  blit src.pol dst.pol;
  blit src.hint dst.hint;
  dst.refs <- src.refs;
  dst.collector_refs <- src.collector_refs;
  dst.misses <- src.misses;
  dst.collector_misses <- src.collector_misses;
  dst.alloc_misses <- src.alloc_misses;
  dst.fetches <- src.fetches;
  dst.collector_fetches <- src.collector_fetches;
  dst.writebacks <- src.writebacks;
  dst.collector_writebacks <- src.collector_writebacks;
  dst.writes <- src.writes;
  dst.collector_writes <- src.collector_writes

(* --- Test introspection -------------------------------------------------- *)

let line_valid t ~set ~way =
  if set < 0 || set >= t.nsets || way < 0 || way >= t.ways then
    invalid_arg "Level.line_valid";
  Array.unsafe_get t.tags ((set * t.ways) + way) >= 0

let victim_preview t ~set =
  if set < 0 || set >= t.nsets then invalid_arg "Level.victim_preview";
  choose_victim t set

(* Model-checking hooks: read-only views of one set's packed state,
   for the exhaustive policy checker (tools/policy_check).  Not
   simulation paths — they allocate and bounds-check freely. *)

let check_coords name t ~set ~way =
  if set < 0 || set >= t.nsets || way < 0 || way >= t.ways then
    invalid_arg name

let policy_words t ~set =
  if set < 0 || set >= t.nsets then invalid_arg "Level.policy_words";
  Array.sub t.pol (set * t.pstride) t.pstride

let line_tag t ~set ~way =
  check_coords "Level.line_tag" t ~set ~way;
  let li = (set * t.ways) + way in
  t.tags.(li)

let line_dirty t ~set ~way =
  check_coords "Level.line_dirty" t ~set ~way;
  Bytes.get t.dirty ((set * t.ways) + way) = '\001'

let line_valid_words t ~set ~way =
  check_coords "Level.line_valid_words" t ~set ~way;
  let li = (set * t.ways) + way in
  (t.valid_lo.(li), t.valid_hi.(li))

(* --- Checkpointing ------------------------------------------------------- *)

(* The snapshot captures everything the access paths read or write —
   tags, valid masks, dirty bits, packed policy words, counters — so
   a restored level continues bit-identically.  Hooks are wiring, not
   state.  Layout: a geometry header (validated on restore), 11
   counters, then the arrays, all as little-endian 64-bit words (dirty
   bits one byte each). *)

let snapshot_magic = 0x4C45564C534E4150L (* "LEVLSNAP" *)

let snapshot t buf =
  let add n = Buffer.add_int64_le buf (Int64.of_int n) in
  Buffer.add_int64_le buf snapshot_magic;
  add t.cfg.size_bytes;
  add t.cfg.block_bytes;
  add t.cfg.ways;
  add (policy_code t.cfg.policy);
  add (match t.cfg.write_miss_policy with
       | Cache.Write_validate -> 0
       | Cache.Fetch_on_write -> 1);
  add 1 (* collector fetch-on-write, always on *);
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
  add_array t.pol

let snapshot_bytes t =
  let lines = t.nsets * t.ways in
  (* magic + 6 geometry words + 11 counters, then the arrays. *)
  (8 * 18) + (8 * 3 * lines) + lines + (8 * Array.length t.pol)

let restore t src pos =
  let len = Bytes.length src in
  if pos < 0 || len - pos < snapshot_bytes t then
    invalid_arg "Level.restore: truncated snapshot";
  let pos = ref pos in
  let word () =
    let w64 = Bytes.get_int64_le src !pos in
    pos := !pos + 8;
    let w = Int64.to_int w64 in
    if not (Int64.equal (Int64.of_int w) w64) then
      invalid_arg "Level.restore: snapshot word does not fit a native int";
    w
  in
  if not (Int64.equal (Bytes.get_int64_le src !pos) snapshot_magic) then
    invalid_arg "Level.restore: not a level snapshot";
  pos := !pos + 8;
  let geom name expected actual =
    if expected <> actual then
      invalid_arg
        (Printf.sprintf
           "Level.restore: snapshot %s is %d but the level has %d" name
           actual expected)
  in
  geom "size_bytes" t.cfg.size_bytes (word ());
  geom "block_bytes" t.cfg.block_bytes (word ());
  geom "ways" t.cfg.ways (word ());
  geom "policy" (policy_code t.cfg.policy) (word ());
  geom "write_miss_policy"
    (match t.cfg.write_miss_policy with
     | Cache.Write_validate -> 0
     | Cache.Fetch_on_write -> 1)
    (word ());
  geom "collector_fetch_on_write" 1 (word ());
  (* Reject line state no access could have produced before loading
     any of it: the fast loops trust tags, valid masks and dirty bytes,
     and a dirty byte of 2, say, would silently drop a write-back.  A
     tag is a block number, so it belongs in the set its low bits
     index, and at most once there. *)
  let lines = t.nsets * t.ways in
  let tags_at = !pos + (8 * 11) in
  let lo_at = tags_at + (8 * lines) in
  let hi_at = lo_at + (8 * lines) in
  let dirty_at = hi_at + (8 * lines) in
  let bad at fmt =
    Printf.ksprintf
      (fun msg -> invalid_arg (Printf.sprintf "Level.restore: byte %d: %s" at msg))
      fmt
  in
  let tag_at i = Int64.to_int (Bytes.get_int64_le src (tags_at + (8 * i))) in
  for i = 0 to lines - 1 do
    let tag = tag_at i in
    let set = i / t.ways in
    if tag < -1 then
      bad (tags_at + (8 * i)) "tag %d below the -1 invalid marker" tag;
    if tag >= 0 && tag land t.set_mask <> set then
      bad (tags_at + (8 * i)) "tag %d filed in set %d but indexes set %d" tag
        set (tag land t.set_mask);
    for j = set * t.ways to i - 1 do
      if tag >= 0 && tag_at j = tag then
        bad (tags_at + (8 * i)) "tag %d resident in ways %d and %d of set %d"
          tag (j - (set * t.ways)) (i - (set * t.ways)) set
    done;
    let lo = Int64.to_int (Bytes.get_int64_le src (lo_at + (8 * i))) in
    if lo land lnot t.full_lo <> 0 then
      bad (lo_at + (8 * i)) "valid mask 0x%x has bits beyond the block" lo;
    let hi = Int64.to_int (Bytes.get_int64_le src (hi_at + (8 * i))) in
    if hi land lnot t.full_hi <> 0 then
      bad (hi_at + (8 * i)) "valid mask 0x%x has bits beyond the block" hi;
    let d = Char.code (Bytes.get src (dirty_at + i)) in
    if d > 1 then bad (dirty_at + i) "dirty byte %d is neither 0 nor 1" d
  done;
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
      Array.unsafe_set a i (word ())
    done
  in
  read_array t.tags;
  read_array t.valid_lo;
  read_array t.valid_hi;
  Bytes.blit src !pos t.dirty 0 lines;
  pos := !pos + lines;
  read_array t.pol;
  (* The restored tags/pol invalidate any recency the hint recorded:
     a stale entry could skip a promote that is no longer a no-op. *)
  Array.fill t.hint 0 (Array.length t.hint) (-1);
  !pos
