(* Policy-pluggable set-associative cache level — the one cache
   simulator.

   One level of a hierarchy: N sets of W ways with a replacement
   policy chosen per level.  The block model — per-word valid bits,
   write-validate vs fetch-on-write, collector stores forced to
   fetch-on-write — is the paper's §4 cache (see level.mli).  A 1-way
   level is the paper's direct-mapped cache: its chunk loops are
   built on one per-event transition, [direct_step].  [access_chunk2]
   steps two such levels per event so a grid replays its cells two per
   pass, and [access_chunk_attr] steps one level and charges each
   outcome to a miss-attribution profile; the per-event [access] stays
   the oracle they are tested against.

   A line is one int, its {e line word}: the block number (the tag)
   shifted left by two, bit 1 set when every word of the block is
   valid, bit 0 the dirty bit.  An invalid line is tag -1, the word
   -4 (or -4 with stale flag bits a restored snapshot may carry,
   which no path reads: every flag test is guarded by a valid tag).
   The per-word valid masks ([valid_lo], [valid_hi]) are kept exact
   for every line but read only for a partial one, so a hit on a full
   line is one load and one compare, and a store hit one store.  The
   full bit always equals "both masks full"; [restore] derives it.

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
   earlier timestamp-based LRU cache at 16 ways).

   The eleven counters are one vector, [cnt], whose slots are named
   once below in the order [snapshot] writes them; [same], [copy],
   [snapshot] and [restore] each treat it whole, like
   the line arrays.  The set-associative loop folds its register
   accumulators into it through one [commit]; the direct-mapped step
   bumps its rare counters in place, and its loops commit only the
   four that depend on the stream alone.  The set-associative loop
   probes a set's hint in one place only, [fast_span]: every event
   the span hands back takes the way scan, which settles a hint hit
   with the same effects. *)

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
  (* Line arrays indexed by [set * ways + way]: the line words (see
     the top of the file) and the exact per-word valid masks. *)
  lines : int array;
  valid_lo : int array;
  valid_hi : int array;
  pol : int array;         (* nsets * pstride packed policy words *)
  (* Line index of the most recent access resolved in each set, -1
     before the first.  Pure accelerator for the chunk loop: a tag
     match at [hint.(set)] proves the hit line without a scan, and —
     because every resolution promotes or fills the resolved way, and
     policy state is per-set — proves the pending promote is a no-op
     for hit-idempotent policies.  Never serialized; [restore] resets
     it. *)
  hint : int array;
  cnt : int array;         (* the counters, slots [c_refs] .. below *)
  mutable fetch_hook : (int -> Trace.phase -> unit) option;
  mutable writeback_hook : (int -> Trace.phase -> unit) option;
}

(* The counter slots, in the order [snapshot] writes them.  Refs,
   misses and fetches split by phase, each mutator slot followed by
   its collector slot, so [slot + phase bit] picks the event's;
   writes and write-backs count every event and, in the next slot,
   the collector's share. *)
let c_refs = 0
let c_collector_refs = 1
let c_misses = 2
let c_collector_misses = 3
let c_alloc_misses = 4
let c_fetches = 5
let c_collector_fetches = 6
let c_writebacks = 7
let c_collector_writebacks = 8
let c_writes = 9
let c_collector_writes = 10
let n_counters = 11

let[@inline] bump_by (a : int array) i n =
  Array.unsafe_set a i (Array.unsafe_get a i + n)

let[@inline] bump a i = bump_by a i 1

(* --- Line words ---------------------------------------------------------- *)

let full_bit = 2
let dirty_bit = 1
let invalid_line = -4 (* tag -1, neither full nor dirty *)

let[@inline] tag_of lw = lw asr 2

(* A valid line holding a dirty block: what a victim must write back.
   The sign test keeps the dirty bit of an invalid line, which a
   restored snapshot may carry, from ever reaching a write-back. *)
let[@inline] dirty_valid lw = lw >= 0 && lw land dirty_bit <> 0

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

(* The geometry rule [create] applies, exported so a configuration
   can be refused where it is written (a manifest field) rather than
   where a level is built. *)
let check cfg =
  let fail field msg = Error (field, msg) in
  if not (is_power_of_two cfg.block_bytes) then
    fail "block_bytes" "block_bytes must be a power of two"
  else if cfg.block_bytes < Trace.word_bytes then
    fail "block_bytes" "block smaller than a word"
  else if cfg.block_bytes > 256 then
    fail "block_bytes" "block wider than 64 words"
  else if cfg.ways < 1 || cfg.ways > 32 then
    fail "ways" "ways must be in 1..32"
  else if
    (match cfg.policy with
     | Tree_plru -> not (is_power_of_two cfg.ways)
     | Lru | Mru | Qlru_h11_m1_r1_u2 | Qlru_h11_m1_r0_u0 -> false)
  then fail "ways" "Tree-PLRU needs a power-of-two way count"
  else if cfg.size_bytes <= 0 || cfg.size_bytes mod cfg.block_bytes <> 0 then
    fail "size_bytes" "size_bytes must be a multiple of block_bytes"
  else if cfg.size_bytes / cfg.block_bytes mod cfg.ways <> 0 then
    fail "size_bytes" "line count not divisible by ways"
  else if not (is_power_of_two (cfg.size_bytes / cfg.block_bytes / cfg.ways))
  then fail "size_bytes" "set count must be a power of two"
  else Ok ()

let create cfg =
  (match check cfg with
   | Ok () -> ()
   | Error (_, msg) -> invalid_arg ("Level.create: " ^ msg));
  let lines = cfg.size_bytes / cfg.block_bytes in
  let nsets = lines / cfg.ways in
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
    lines = Array.make lines invalid_line;
    valid_lo = Array.make lines 0;
    valid_hi = Array.make lines 0;
    pol;
    hint = Array.make nsets (-1);
    cnt = Array.make n_counters 0;
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

let rec find_way (lines : int array) base mem_block y =
  if y < 0 then -1
  else if tag_of (Array.unsafe_get lines (base + y)) = mem_block then y
  else find_way lines base mem_block (y - 1)

let rec first_invalid (lines : int array) base ways y =
  if y >= ways then -1
  else if Array.unsafe_get lines (base + y) < 0 then y
  else first_invalid lines base ways (y + 1)

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
  let inv = first_invalid t.lines base t.ways 0 in
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

let[@inline] phase_bit (phase : Trace.phase) =
  match phase with
  | Trace.Mutator -> 0
  | Trace.Collector -> 1

let[@inline] write_validates t =
  match t.cfg.write_miss_policy with
  | Cache.Write_validate -> true
  | Cache.Fetch_on_write -> false

(* The full bit of a line whose valid masks are [lo] and [hi]. *)
let[@inline] full_if t lo hi =
  if lo = t.full_lo && hi = t.full_hi then full_bit else 0

(* Validate every word of line [li]; the caller sets the full bit. *)
let[@inline] validate_all t li =
  Array.unsafe_set t.valid_lo li t.full_lo;
  Array.unsafe_set t.valid_hi li t.full_hi

(* A miss in [set]: write the victim back if it is dirty, then install
   [mem_block] there, clean and not full, with the policy's fill
   state.  Returns the line. *)
let[@hot] fill t set mem_block phase =
  let v = choose_victim t set in
  let li = (set * t.ways) + v in
  let old = Array.unsafe_get t.lines li in
  if dirty_valid old then begin
    bump t.cnt c_writebacks;
    bump_by t.cnt c_collector_writebacks (phase_bit phase);
    match t.writeback_hook with
    | None -> ()
    | Some hook -> hook (tag_of old lsl t.block_shift) phase
  end;
  Array.unsafe_set t.lines li (mem_block lsl 2);
  fill_state t set v;
  Array.unsafe_set t.hint set li;
  li

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
  let ph = phase_bit phase in
  let mutator = ph = 0 in
  let cnt = t.cnt in
  bump cnt (c_refs + ph);
  let is_store =
    match (kind : Trace.kind) with
    | Trace.Read -> false
    | Trace.Write | Trace.Alloc_write -> true
  in
  let st = if is_store then dirty_bit else 0 in
  if is_store then begin
    bump cnt c_writes;
    bump_by cnt c_collector_writes ph
  end;
  let lines = t.lines in
  let way = find_way lines base mem_block (t.ways - 1) in
  if way >= 0 then begin
    let li = base + way in
    promote t set way;
    Array.unsafe_set t.hint set li;
    let lw = Array.unsafe_get lines li in
    let valid = if high then t.valid_hi else t.valid_lo in
    if lw land full_bit <> 0 || Array.unsafe_get valid li land wbit <> 0 then
      Array.unsafe_set lines li (lw lor st)
    else if is_store then begin
      Array.unsafe_set valid li (Array.unsafe_get valid li lor wbit);
      Array.unsafe_set lines li
        (lw lor dirty_bit
         lor full_if t (Array.unsafe_get t.valid_lo li)
               (Array.unsafe_get t.valid_hi li))
    end
    else begin
      (* read of an unvalidated word in a resident block: fetch all *)
      bump cnt (c_misses + ph);
      bump cnt (c_fetches + ph);
      validate_all t li;
      Array.unsafe_set lines li (lw lor full_bit);
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
    bump cnt (c_misses + ph);
    if alloc then bump cnt c_alloc_misses;
    let li = fill t set mem_block phase in
    (* collector stores always fetch on write *)
    let wv = write_validates t && mutator in
    if is_store && wv then begin
      let lo = if high then 0 else wbit and hi = if high then wbit else 0 in
      Array.unsafe_set t.valid_lo li lo;
      Array.unsafe_set t.valid_hi li hi;
      Array.unsafe_set lines li
        ((mem_block lsl 2) lor dirty_bit lor full_if t lo hi)
    end
    else begin
      bump cnt (c_fetches + ph);
      (match t.fetch_hook with
       | None -> ()
       | Some hook -> hook (mem_block lsl t.block_shift) phase);
      validate_all t li;
      Array.unsafe_set lines li ((mem_block lsl 2) lor full_bit lor st)
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
  let ph = phase_bit phase in
  let cnt = t.cnt in
  bump cnt (c_refs + ph);
  bump cnt c_writes;
  bump_by cnt c_collector_writes ph;
  let way = find_way t.lines base mem_block (t.ways - 1) in
  let li =
    if way >= 0 then begin
      promote t set way;
      Array.unsafe_set t.hint set (base + way);
      base + way
    end
    else begin
      bump cnt (c_misses + ph);
      fill t set mem_block phase
    end
  in
  validate_all t li;
  Array.unsafe_set t.lines li ((mem_block lsl 2) lor full_bit lor dirty_bit)

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
   that hit the set's most recently resolved line (see [hint]) with an
   access it can settle in place, and returns the index of the first
   event it could not consume — hint miss, or on a partial line a
   write-back word, a high word of a wide block, a read of an
   unvalidated word or a store that would complete the low mask — for
   the way scan in [run_sets] to resolve.  On a full line every event
   is settled: the store bit of the event word is the whole update.
   Only called for policies whose promote is idempotent on repeated
   hits, so the pending promote is provably a no-op and the whole
   event touches nothing but the line word and, on a partial line,
   its low valid mask.

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
      (* kind codes 1 and 2 are stores, 3 a write-back: all writes *)
      let st = if idx lsr 1 = 0 then 0 else 1 in
      phase + (st lsl 21) + ((st land phase) lsl 42))

(* The dirty bit an event word sets: 1 for kind codes 1-3. *)
let[@inline] store_bit w = ((w lsr 1) lor (w lsr 2)) land 1

let[@hot] fast_span (buf : Chunk.buf) i0 limit (hint : int array)
    (lines : int array) (valid_lo : int array) (pol : int array)
    (tbl : int array) geo (acc_cell : int array) =
  let shift3 = geo land 63 in
  let wmask = (geo lsr 6) land 255 in
  let ways = (geo lsr 14) land 63 in
  let smask = geo lsr 20 in
  (* the low mask of a full block: a store reaching it may complete
     the line, which the way scan settles *)
  let lo_full = if wmask >= 32 then 0xFFFF_FFFF else (1 lsl (wmask + 1)) - 1 in
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
    let lw = if li >= 0 then Array.unsafe_get lines li else invalid_line in
    if tag_of lw = mem_block then begin
      let st = store_bit w in
      if lw land full_bit <> 0 then begin
        Array.unsafe_set lines li (lw lor st);
        acc := !acc + Array.unsafe_get tbl (w land 7);
        incr i
      end
      else begin
        let word = (w lsr 5) land wmask in
        let vword =
          Array.unsafe_get valid_lo li lor ((1 lsl word) land (-st))
        in
        if
          (w lsr 1) land 3 = wb_code
          || word >= 32
          || vword land (1 lsl word) = 0
          || vword = lo_full
        then begin
          stop := !i;
          i := max_int
        end
        else begin
          Array.unsafe_set valid_lo li vword;
          Array.unsafe_set lines li (lw lor st);
          acc := !acc + Array.unsafe_get tbl (w land 7);
          incr i
        end
      end
    end
    else if not scan_ok then begin
      stop := !i;
      i := max_int
    end
    else begin
      let set = mem_block land smask in
      let base = set * ways in
      let y = ref (ways - 1) in
      while
        !y >= 0 && tag_of (Array.unsafe_get lines (base + !y)) <> mem_block
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

(* Add a chunk loop's register accumulators to the counters, one
   argument per slot in slot order; the mutator refs are the [len]
   events that were not collector refs. *)
let[@inline] commit cnt len cr m cm am f cf wb cwb w cw =
  bump_by cnt c_refs (len - cr);
  bump_by cnt c_collector_refs cr;
  bump_by cnt c_misses m;
  bump_by cnt c_collector_misses cm;
  bump_by cnt c_alloc_misses am;
  bump_by cnt c_fetches f;
  bump_by cnt c_collector_fetches cf;
  bump_by cnt c_writebacks wb;
  bump_by cnt c_collector_writebacks cwb;
  bump_by cnt c_writes w;
  bump_by cnt c_collector_writes cw

(* [run_sets] is the set-associative hot loop behind both entry
   points; when [emit] is false [out] is never touched.  Input words
   with kind code 3 are consumed as write-backs, so a level's output
   stream can be fed straight into the next level's [run_chunk].
   Every event [fast_span] hands back, and every event of a policy it
   does not serve (QLRU), takes the way scan below; on a hint hit the
   scan's promote is the no-op [fast_span] skips, or QLRU's real one. *)
let[@hot] run_sets t (buf : Chunk.buf) off len emit (out : Chunk.buf) opos =
  let lines = t.lines
  and valid_lo = t.valid_lo
  and valid_hi = t.valid_hi
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
  let write_validate = write_validates t in
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
        fast_span buf !ip cap hint lines valid_lo span_pol acc_tbl geo
          acc_cell
      in
      let a = Array.unsafe_get acc_cell 0 in
      collector_refs := !collector_refs + (a land 0x1F_FFFF);
      writes := !writes + ((a lsr 21) land 0x1F_FFFF);
      collector_writes := !collector_writes + (a lsr 42);
      ip := j
    end;
    if !ip < limit then begin
      let w = Bigarray.Array1.unsafe_get buf !ip in
      incr ip;
      let kcode = (w lsr 1) land 3 in
      let mem_block = w lsr shift3 in
      collector_refs := !collector_refs + (w land 1);
      let set = mem_block land set_mask in
      let mutator = w land 1 = 0 in
      let base = set * ways in
      let way =
        let y = ref (ways - 1) in
        while
          !y >= 0 && tag_of (Array.unsafe_get lines (base + !y)) <> mem_block
        do
          decr y
        done;
        !y
      in
      (* kind codes 1 and 2 are stores, 3 a whole-block write-back *)
      let is_store = kcode <> 0 in
      let st = store_bit w in
      if is_store then begin
        incr writes;
        if not mutator then incr collector_writes
      end;
      let li =
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
          li
        end
        else begin
          if mutator then begin
            incr misses;
            if kcode = 2 then incr alloc_misses
          end
          else incr collector_misses;
          let v = choose_victim t set in
          let li = base + v in
          let old = Array.unsafe_get lines li in
          if dirty_valid old then begin
            incr writebacks;
            if not mutator then incr collector_writebacks;
            if emit then begin
              Bigarray.Array1.unsafe_set out !op
                ((tag_of old lsl shift3) lor (wb_code lsl 1) lor (w land 1));
              incr op
            end
          end;
          Array.unsafe_set lines li (mem_block lsl 2);
          fill_state t set v;
          Array.unsafe_set hint set li;
          li
        end
      in
      let lw = Array.unsafe_get lines li in
      if kcode = wb_code then begin
        (* whole-block write-back from the level above *)
        Array.unsafe_set valid_lo li full_lo;
        Array.unsafe_set valid_hi li full_hi;
        Array.unsafe_set lines li (lw lor full_bit lor dirty_bit)
      end
      else begin
        let word = (w lsr 5) land word_mask in
        let high = word >= 32 in
        let wbit = 1 lsl (word land 31) in
        let valid = if high then valid_hi else valid_lo in
        if way >= 0 then begin
          if lw land full_bit <> 0 || Array.unsafe_get valid li land wbit <> 0
          then Array.unsafe_set lines li (lw lor st)
          else if is_store then begin
            Array.unsafe_set valid li (Array.unsafe_get valid li lor wbit);
            Array.unsafe_set lines li
              (lw lor dirty_bit
               lor (if
                      Array.unsafe_get valid_lo li = full_lo
                      && Array.unsafe_get valid_hi li = full_hi
                    then full_bit
                    else 0))
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
            Array.unsafe_set lines li (lw lor full_bit);
            if emit then begin
              Bigarray.Array1.unsafe_set out !op
                ((mem_block lsl shift3) lor (w land 1));
              incr op
            end
          end
        end
        else if is_store && write_validate && mutator then begin
          let lo = if high then 0 else wbit and hi = if high then wbit else 0 in
          Array.unsafe_set valid_lo li lo;
          Array.unsafe_set valid_hi li hi;
          Array.unsafe_set lines li
            (lw lor dirty_bit
             lor (if lo = full_lo && hi = full_hi then full_bit else 0))
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
          Array.unsafe_set lines li (lw lor full_bit lor st)
        end
      end
    end
  done;
  commit t.cnt len !collector_refs !misses !collector_misses !alloc_misses
    !fetches !collector_fetches !writebacks !collector_writebacks !writes
    !collector_writes;
  !op

(* --- The direct-mapped step ------------------------------------------------ *)

(* With one way the set index is the line index, so there is no way
   scan, no hint and no victim choice: the §4 cache of the paper.
   [direct_step] is its whole per-event transition — [access]'s (and
   [write_back]'s for kind code 3) with [way = 0] — and every
   direct-mapped loop below is a loop over it:

   - [run_direct], the sweep grid's cell loop and the miss-stream
     producer of a 1-way level in a hierarchy;
   - [run_pair] ([access_chunk2]), two cells per event;
   - [run_attr] ([access_chunk_attr]), which attributes each outcome.

   The step bumps the rare counters (misses, fetches, write-backs,
   alloc misses) in [t.cnt] in place and returns what happened as
   [o_*] bits, so a loop that emits a miss stream or attributes knows
   which words to append and which slots to charge.  The four counters
   that depend on the stream alone (refs, collector refs, writes,
   collector writes) are the loop's: one count per event however many
   levels it steps.

   The hot path is the first test: one load of the line word and one
   compare against the event's block with the full bit (and the
   dirty bit) forced, and on a store one store of the dirty word.
   Everything past it reads [t]'s fields itself, so a loop keeps only
   [lines], the shift and the index mask live per level.  The loops
   make no calls, so nothing live across them is spilled around one;
   the one-way policy updates are inlined instead ([pstride] is 1 for
   every policy at one way, so a set's word is [pol.(idx)]):

   - LRU and Tree-PLRU never change a one-way set: the one rank is
     already 0 and the tree has no nodes.
   - MRU ([polk] 1) sets the way's bit on every resolution; with one
     way the wrap-around reset leaves the same word.
   - QLRU ([polk] 2) halves the age on a hit (H11) and inserts at age
     1 on a fill (M1).  The fill overwrites the only age a victim
     normalization would raise, and U2's aging of the other lines has
     no other lines to age.

   [polk] is a constant 0 in the grid loops (the compiler folds the
   policy updates away) and the level's own elsewhere. *)

let o_miss = 1
let o_fetch = 2
let o_writeback = 4 (* the victim was dirty: the word before the step *)
let o_alloc = 8

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

let[@inline] direct_step t (lines : int array) shift3 index_mask polk w =
  let mem_block = w lsr shift3 in
  let idx = mem_block land index_mask in
  let lw = Array.unsafe_get lines idx in
  let full_dirty = (mem_block lsl 2) lor full_bit lor dirty_bit in
  if lw lor dirty_bit = full_dirty then begin
    (* a full line: a hit whatever the word *)
    if polk <> 0 then promote_direct t.pol polk idx;
    if w land 6 <> 0 then Array.unsafe_set lines idx full_dirty;
    0
  end
  else begin
    let kcode = (w lsr 1) land 3 in
    let ph = w land 1 in
    let cnt = t.cnt in
    if tag_of lw = mem_block then begin
      (* a partial line: the valid masks decide *)
      if polk <> 0 then promote_direct t.pol polk idx;
      if kcode = wb_code then begin
        validate_all t idx;
        Array.unsafe_set lines idx full_dirty;
        0
      end
      else begin
        let word = (w lsr 5) land t.word_mask in
        let valid = if word >= 32 then t.valid_hi else t.valid_lo in
        let wbit = 1 lsl (word land 31) in
        let v = Array.unsafe_get valid idx in
        if v land wbit <> 0 then begin
          if kcode <> 0 then Array.unsafe_set lines idx (lw lor dirty_bit);
          0
        end
        else if kcode <> 0 then begin
          Array.unsafe_set valid idx (v lor wbit);
          Array.unsafe_set lines idx
            (lw lor dirty_bit
             lor full_if t (Array.unsafe_get t.valid_lo idx)
                   (Array.unsafe_get t.valid_hi idx));
          0
        end
        else begin
          (* read of an unvalidated word in a resident block: fetch all *)
          bump cnt (c_misses + ph);
          bump cnt (c_fetches + ph);
          validate_all t idx;
          Array.unsafe_set lines idx (lw lor full_bit);
          o_miss lor o_fetch
        end
      end
    end
    else begin
      bump cnt (c_misses + ph);
      let wb =
        if dirty_valid lw then begin
          bump cnt c_writebacks;
          bump_by cnt c_collector_writebacks ph;
          o_writeback
        end
        else 0
      in
      if polk <> 0 then fill_direct t.pol polk idx;
      if kcode = wb_code then begin
        (* whole-block write-back from the level above *)
        validate_all t idx;
        Array.unsafe_set lines idx full_dirty;
        o_miss lor wb
      end
      else begin
        let alloc =
          if kcode = 2 && ph = 0 then begin
            bump cnt c_alloc_misses;
            o_alloc
          end
          else 0
        in
        if kcode <> 0 && ph = 0 && write_validates t then begin
          (* allocate the line, validate just this word, fetch nothing *)
          let word = (w lsr 5) land t.word_mask in
          let wbit = 1 lsl (word land 31) in
          let lo = if word >= 32 then 0 else wbit
          and hi = if word >= 32 then wbit else 0 in
          Array.unsafe_set t.valid_lo idx lo;
          Array.unsafe_set t.valid_hi idx hi;
          Array.unsafe_set lines idx
            ((mem_block lsl 2) lor dirty_bit lor full_if t lo hi);
          o_miss lor wb lor alloc
        end
        else begin
          bump cnt (c_fetches + ph);
          validate_all t idx;
          Array.unsafe_set lines idx (full_dirty lxor dirty_bit lor store_bit w);
          o_miss lor o_fetch lor wb lor alloc
        end
      end
    end
  end

(* The direct-mapped loops count the stream as [fast_span] does: one
   [acc_tbl] entry per event, into 21-bit fields of one accumulator,
   so no loop may see [stream_span] events or more at once.
   [commit_packed] adds [len] events' fields to the counters. *)
let stream_span = 1 lsl 20

let[@inline] commit_packed cnt len acc =
  let cr = acc land 0x1F_FFFF in
  bump_by cnt c_refs (len - cr);
  bump_by cnt c_collector_refs cr;
  bump_by cnt c_writes ((acc lsr 21) land 0x1F_FFFF);
  bump_by cnt c_collector_writes (acc lsr 42)

(* [buf]'s concrete Bigarray type must be visible in every loop below:
   an unannotated parameter stays polymorphic during inference, and
   the compiler then emits a generic caml_ba_get_1 C call per event
   instead of a direct load (a measured ~2.5x slowdown).

   With [emit] the loop also appends the level's miss stream to [out]
   from [opos] — the victim's write-back (kind code 3), then the
   fetch — and returns the position after it.  It is inlined three
   times: for the grid's LRU cells with [emit] false and [polk] 0,
   which the compiler folds away; for the other policies; and for
   miss streams. *)
let[@inline] direct_loop t (buf : Chunk.buf) off len polk emit
    (out : Chunk.buf) opos =
  let lines = t.lines in
  let shift3 = t.block_shift + 3 and index_mask = t.set_mask in
  let acc = ref 0 and op = ref opos in
  for i = off to off + len - 1 do
    let w = Bigarray.Array1.unsafe_get buf i in
    acc := !acc + Array.unsafe_get acc_tbl (w land 7);
    let mem_block = w lsr shift3 in
    let old =
      if emit then Array.unsafe_get lines (mem_block land index_mask) else 0
    in
    let o = direct_step t lines shift3 index_mask polk w in
    if emit && o land (o_writeback lor o_fetch) <> 0 then begin
      if o land o_writeback <> 0 then begin
        Bigarray.Array1.unsafe_set out !op
          ((tag_of old lsl shift3) lor (wb_code lsl 1) lor (w land 1));
        incr op
      end;
      if o land o_fetch <> 0 then begin
        Bigarray.Array1.unsafe_set out !op
          ((mem_block lsl shift3) lor (w land 1));
        incr op
      end
    end
  done;
  commit_packed t.cnt len !acc;
  !op

let[@hot] run_direct t buf off len emit out opos =
  let polk = policy_kind t in
  let pos = ref off and op = ref opos in
  while !pos < off + len do
    let n = Int.min stream_span (off + len - !pos) in
    op :=
      if emit then direct_loop t buf !pos n polk true out !op
      else if polk = 0 then direct_loop t buf !pos n 0 false Chunk.empty 0
      else direct_loop t buf !pos n polk false Chunk.empty 0;
    pos := !pos + n
  done;
  !op

(* Two cells per event: each event word is loaded and its stream
   counters counted once, then stepped through [a] and [b]; [len] is
   below [stream_span].  Only the paper's cells take it (LRU or
   Tree-PLRU, so [polk] is 0 for both); the levels are distinct, so
   the two steps touch disjoint state and each level ends exactly as
   its own [run_direct] pass leaves it. *)
let[@hot] run_pair a b (buf : Chunk.buf) off len =
  let la = a.lines and lb = b.lines in
  let sa = a.block_shift + 3 and ma = a.set_mask in
  let sb = b.block_shift + 3 and mb = b.set_mask in
  let acc = ref 0 in
  for i = off to off + len - 1 do
    let w = Bigarray.Array1.unsafe_get buf i in
    acc := !acc + Array.unsafe_get acc_tbl (w land 7);
    ignore (direct_step a la sa ma 0 w : int);
    ignore (direct_step b lb sb mb 0 w : int)
  done;
  commit_packed a.cnt len !acc;
  commit_packed b.cnt len !acc

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

(* The recording position of the side table's next region-map epoch
   or site run after epoch [ei] and run [si], whichever comes first:
   until an event reaches it, the cursor has nothing to catch up. *)
let[@inline] next_change (epoch_pos : int array) n_epochs ei
    (run_pos : int array) n_runs si =
  let e =
    if ei + 1 < n_epochs then Array.unsafe_get epoch_pos (ei + 1)
    else max_int
  and r = if si < n_runs then Array.unsafe_get run_pos si else max_int in
  if e < r then e else r

(* Charge one event to its (region x phase) [slot] in [prof]: the
   ref, the write of a store, and the site of a mutator allocation
   write. *)
let[@inline] charge_event (prof : Attr.profile) slot w site =
  bump prof.Attr.refs slot;
  if w land 6 <> 0 then begin
    bump prof.Attr.writes slot;
    if w land 7 = 4 then bump prof.Attr.site_alloc_writes site
  end

(* Charge the outcome [o] of stepping one level on event [w] (at
   recording position [p]) to [prof]; [wb_slot] is the evicted block's
   slot when [o] has a write-back. *)
let[@inline] charge_outcome (prof : Attr.profile) o slot w p site wb_slot =
  if o land o_miss <> 0 then begin
    bump prof.Attr.misses slot;
    bump_heat prof.Attr.heat prof.Attr.heat_rows prof.Attr.heat_cols
      prof.Attr.heat_row_shift prof.Attr.heat_col_shift prof.Attr.region_time
      (w lsr 3) p (slot lsr 1)
  end;
  if o land o_fetch <> 0 then bump prof.Attr.fetches slot;
  if o land o_alloc <> 0 then begin
    bump prof.Attr.alloc_misses slot;
    bump prof.Attr.site_alloc_misses site
  end;
  if o land o_writeback <> 0 then bump prof.Attr.writebacks wb_slot

(* Attribution must not reorder or change the simulation, so it is the
   direct-mapped step itself, with every outcome charged to the
   event's (region x phase) slot in [prof] beside the aggregate bump
   the step made: that is what makes the per-slot sums equal the
   aggregate counters exactly.  A write-back is charged to the evicted
   block's region under the map in force now.  [base] is the
   recording-global index of [buf.(off)], and [cur]'s side-table logs
   are consumed forward from it; [len] is below [stream_span].
   Attribution is defined for recorded events (kind codes 0-2) only. *)
let[@hot] run_attr t (cur : Attr.cursor) (prof : Attr.profile) base
    (buf : Chunk.buf) off len =
  let lines = t.lines in
  let shift = t.block_shift + 3 and mask = t.set_mask in
  let pk = policy_kind t in
  let acc = ref 0 in
  let tbl = cur.Attr.ctab in
  let epoch_pos = tbl.Attr.epoch_pos
  and n_epochs = tbl.Attr.n_epochs
  and run_pos = tbl.Attr.run_pos
  and n_runs = tbl.Attr.n_runs in
  let ei = ref cur.Attr.ei
  and si = ref cur.Attr.si
  and cur_site = ref cur.Attr.cur_site
  and stack_lo = ref cur.Attr.stack_lo
  and dyn_lo = ref cur.Attr.dyn_lo
  and to_lo = ref cur.Attr.to_lo
  and to_hi = ref cur.Attr.to_hi
  and from_lo = ref cur.Attr.from_lo
  and from_hi = ref cur.Attr.from_hi in
  let change = ref (next_change epoch_pos n_epochs !ei run_pos n_runs !si) in
  for i = off to off + len - 1 do
    let w = Bigarray.Array1.unsafe_get buf i in
    acc := !acc + Array.unsafe_get acc_tbl (w land 7);
    let p = base + i - off in
    (* the event's (region x phase) slot, once the cursor has caught
       up with it *)
    if p >= !change then begin
      while !ei + 1 < n_epochs && Array.unsafe_get epoch_pos (!ei + 1) <= p do
        let e = !ei + 1 in
        ei := e;
        stack_lo := Array.unsafe_get tbl.Attr.epoch_stack_lo e;
        dyn_lo := Array.unsafe_get tbl.Attr.epoch_dyn_lo e;
        to_lo := Array.unsafe_get tbl.Attr.epoch_to_lo e;
        to_hi := Array.unsafe_get tbl.Attr.epoch_to_hi e;
        from_lo := Array.unsafe_get tbl.Attr.epoch_from_lo e;
        from_hi := Array.unsafe_get tbl.Attr.epoch_from_hi e
      done;
      while !si < n_runs && Array.unsafe_get run_pos !si <= p do
        cur_site := Array.unsafe_get tbl.Attr.run_site !si;
        si := !si + 1
      done;
      change := next_change epoch_pos n_epochs !ei run_pos n_runs !si
    end;
    let slot =
      (region_of (w lsr 3) !stack_lo !dyn_lo !to_lo !to_hi !from_lo !from_hi
       lsl 1)
      lor (w land 1)
    in
    charge_event prof slot w !cur_site;
    let old = Array.unsafe_get lines ((w lsr shift) land mask) in
    let o = direct_step t lines shift mask pk w in
    if o <> 0 then
      charge_outcome prof o slot w p !cur_site
        ((region_of (tag_of old lsl t.block_shift) !stack_lo !dyn_lo !to_lo
            !to_hi !from_lo !from_hi
         lsl 1)
        lor (w land 1))
  done;
  commit_packed t.cnt len !acc;
  prof.Attr.events_attributed <- prof.Attr.events_attributed + len;
  cur.Attr.ei <- !ei;
  cur.Attr.si <- !si;
  cur.Attr.cur_site <- !cur_site;
  cur.Attr.stack_lo <- !stack_lo;
  cur.Attr.dyn_lo <- !dyn_lo;
  cur.Attr.to_lo <- !to_lo;
  cur.Attr.to_hi <- !to_hi;
  cur.Attr.from_lo <- !from_lo;
  cur.Attr.from_hi <- !from_hi

(* The chunk step behind both entry points: the geometry alone picks
   the loop. *)
let[@hot] run_chunk t buf off len emit out opos =
  if t.ways = 1 then run_direct t buf off len emit out opos
  else run_sets t buf off len emit out opos

let check_range name (buf : Chunk.buf) off len =
  if off < 0 || len < 0 || off + len > Bigarray.Array1.dim buf then
    invalid_arg name

let hooked t =
  Option.is_some t.fetch_hook || Option.is_some t.writeback_hook

let check_attr name t ~base buf off len =
  check_range name buf off len;
  if base < 0 then invalid_arg (name ^ ": negative base");
  if t.ways <> 1 then invalid_arg (name ^ ": the level is not direct-mapped");
  if hooked t then invalid_arg (name ^ ": fill hooks are installed")

let access_chunk_attr t (cur : Attr.cursor) (prof : Attr.profile) ~base
    (buf : Chunk.buf) off len =
  check_attr "Level.access_chunk_attr" t ~base buf off len;
  let pos = ref off in
  while !pos < off + len do
    let n = Int.min stream_span (off + len - !pos) in
    run_attr t cur prof (base + !pos - off) buf !pos n;
    pos := !pos + n
  done

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

(* The pair loop serves two distinct unhooked one-way levels whose
   policy word never moves; anything else is the two passes it is
   equivalent to. *)
let access_chunk2 a b buf off len =
  check_range "Level.access_chunk2" buf off len;
  if
    a != b && a.ways = 1 && b.ways = 1
    && (not (hooked a || hooked b))
    && policy_kind a = 0 && policy_kind b = 0
  then begin
    let pos = ref off in
    while !pos < off + len do
      let n = Int.min stream_span (off + len - !pos) in
      run_pair a b buf !pos n;
      pos := !pos + n
    done
  end
  else begin
    access_chunk a buf off len;
    access_chunk b buf off len
  end

let access_chunk_emit t buf off len ~out ~pos =
  check_range "Level.access_chunk_emit" buf off len;
  if hooked t then
    invalid_arg "Level.access_chunk_emit: fill hooks are installed";
  if pos < 0 || pos + (2 * len) > Bigarray.Array1.dim out then
    invalid_arg "Level.access_chunk_emit: output buffer too small";
  run_chunk t buf off len true out pos

(* --- Stats -------------------------------------------------------------- *)

let stats t : Cache.stats =
  let c = t.cnt in
  { Cache.refs = c.(c_refs);
    collector_refs = c.(c_collector_refs);
    misses = c.(c_misses);
    collector_misses = c.(c_collector_misses);
    alloc_misses = c.(c_alloc_misses);
    fetches = c.(c_fetches);
    collector_fetches = c.(c_collector_fetches);
    writebacks = c.(c_writebacks);
    collector_writebacks = c.(c_collector_writebacks);
    writes = c.(c_writes);
    collector_writes = c.(c_collector_writes)
  }

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
  && Array.for_all2 Int.equal a.cnt b.cnt
  && Array.for_all2 Int.equal a.lines b.lines
  && Array.for_all2 Int.equal a.valid_lo b.valid_lo
  && Array.for_all2 Int.equal a.valid_hi b.valid_hi
  && Array.for_all2 Int.equal a.pol b.pol

(* The hint is copied with the state it describes, so it stays a
   sound accelerator for [dst]. *)
let copy ~src dst =
  if not (config_equal src.cfg dst.cfg) then
    invalid_arg "Level.copy: the levels' configurations differ";
  let blit a b = Array.blit a 0 b 0 (Array.length a) in
  blit src.lines dst.lines;
  blit src.valid_lo dst.valid_lo;
  blit src.valid_hi dst.valid_hi;
  blit src.pol dst.pol;
  blit src.hint dst.hint;
  blit src.cnt dst.cnt

(* --- Test introspection -------------------------------------------------- *)

let line_valid t ~set ~way =
  if set < 0 || set >= t.nsets || way < 0 || way >= t.ways then
    invalid_arg "Level.line_valid";
  Array.unsafe_get t.lines ((set * t.ways) + way) >= 0

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
  tag_of t.lines.(li)

let line_dirty t ~set ~way =
  check_coords "Level.line_dirty" t ~set ~way;
  let li = (set * t.ways) + way in
  t.lines.(li) land dirty_bit <> 0

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
   bits one byte each).  The line words are split back into the tag
   and dirty columns of that layout; their full bits are not written,
   since the valid masks determine them. *)

let snapshot_magic = 0x4C45564C534E4150L (* "LEVLSNAP" *)

(* The geometry header after the magic, with the names [restore]
   reports a mismatch under. *)
let header t =
  [ ("size_bytes", t.cfg.size_bytes);
    ("block_bytes", t.cfg.block_bytes);
    ("ways", t.cfg.ways);
    ("policy", policy_code t.cfg.policy);
    ( "write_miss_policy",
      match t.cfg.write_miss_policy with
      | Cache.Write_validate -> 0
      | Cache.Fetch_on_write -> 1 );
    ("collector_fetch_on_write", 1 (* always on *)) ]

let snapshot t buf =
  let add n = Buffer.add_int64_le buf (Int64.of_int n) in
  Buffer.add_int64_le buf snapshot_magic;
  List.iter (fun (_, v) -> add v) (header t);
  let add_array a = Array.iter add a in
  add_array t.cnt;
  Array.iter (fun lw -> add (tag_of lw)) t.lines;
  add_array t.valid_lo;
  add_array t.valid_hi;
  Array.iter
    (fun lw -> Buffer.add_char buf (if lw land dirty_bit <> 0 then '\001' else '\000'))
    t.lines;
  add_array t.pol

let snapshot_bytes t =
  let lines = t.nsets * t.ways in
  (* magic, header and counters, then the arrays. *)
  (8 * (1 + List.length (header t) + n_counters)) + (8 * 3 * lines) + lines + (8 * Array.length t.pol)

let restore t src pos =
  let len = Bytes.length src in
  let bad at fmt =
    Printf.ksprintf
      (fun msg -> invalid_arg (Printf.sprintf "Level.restore: byte %d: %s" at msg))
      fmt
  in
  if pos < 0 || len - pos < snapshot_bytes t then
    bad pos "truncated snapshot";
  let word_at at =
    let w64 = Bytes.get_int64_le src at in
    let w = Int64.to_int w64 in
    if not (Int64.equal (Int64.of_int w) w64) then
      bad at "word 0x%Lx does not fit a native int" w64;
    w
  in
  if not (Int64.equal (Bytes.get_int64_le src pos) snapshot_magic) then
    bad pos "not a level snapshot";
  List.iteri
    (fun i (name, expected) ->
      let at = pos + 8 + (8 * i) in
      let actual = word_at at in
      if expected <> actual then
        bad at "snapshot %s is %d but the level has %d" name actual expected)
    (header t);
  (* Reject a snapshot no access could have produced before loading
     any of it, so a refused restore leaves the level as it was: every
     word must fit a native int, no counter may be negative (each
     counts events, and repro check refuses a negative one too), and
     the fast loops trust tags, valid masks and dirty bytes — a dirty
     byte of 2, say, would set the line word's full bit.  A tag is a
     block number, so it belongs in the set its low bits index, and at
     most once there; and it is the block of some byte address, so it
     fits a line word. *)
  let lines = t.nsets * t.ways in
  let cnt_at = pos + (8 * (1 + List.length (header t))) in
  let tags_at = cnt_at + (8 * n_counters) in
  let lo_at = tags_at + (8 * lines) in
  let hi_at = lo_at + (8 * lines) in
  let dirty_at = hi_at + (8 * lines) in
  let pol_at = dirty_at + lines in
  let check_words at n =
    for i = 0 to n - 1 do
      ignore (word_at (at + (8 * i)))
    done
  in
  check_words cnt_at (n_counters + (3 * lines));
  check_words pol_at (Array.length t.pol);
  for i = 0 to n_counters - 1 do
    let c = word_at (cnt_at + (8 * i)) in
    if c < 0 then bad (cnt_at + (8 * i)) "negative counter %d" c
  done;
  let tag_at i = word_at (tags_at + (8 * i)) in
  for i = 0 to lines - 1 do
    let tag = tag_at i in
    let set = i / t.ways in
    if tag < -1 then
      bad (tags_at + (8 * i)) "tag %d below the -1 invalid marker" tag;
    if tag > max_int lsr t.block_shift then
      bad (tags_at + (8 * i)) "tag %d beyond the address space of %d-byte blocks"
        tag t.cfg.block_bytes;
    if tag >= 0 && tag land t.set_mask <> set then
      bad (tags_at + (8 * i)) "tag %d filed in set %d but indexes set %d" tag
        set (tag land t.set_mask);
    for j = set * t.ways to i - 1 do
      if tag >= 0 && tag_at j = tag then
        bad (tags_at + (8 * i)) "tag %d resident in ways %d and %d of set %d"
          tag (j - (set * t.ways)) (i - (set * t.ways)) set
    done;
    let lo = word_at (lo_at + (8 * i)) in
    if lo land lnot t.full_lo <> 0 then
      bad (lo_at + (8 * i)) "valid mask 0x%x has bits beyond the block" lo;
    let hi = word_at (hi_at + (8 * i)) in
    if hi land lnot t.full_hi <> 0 then
      bad (hi_at + (8 * i)) "valid mask 0x%x has bits beyond the block" hi;
    let d = Char.code (Bytes.get src (dirty_at + i)) in
    if d > 1 then bad (dirty_at + i) "dirty byte %d is neither 0 nor 1" d
  done;
  let read_array a at =
    for i = 0 to Array.length a - 1 do
      Array.unsafe_set a i
        (Int64.to_int (Bytes.get_int64_le src (at + (8 * i))))
    done
  in
  read_array t.cnt cnt_at;
  read_array t.valid_lo lo_at;
  read_array t.valid_hi hi_at;
  for i = 0 to lines - 1 do
    Array.unsafe_set t.lines i
      ((tag_at i lsl 2)
       lor full_if t (Array.unsafe_get t.valid_lo i) (Array.unsafe_get t.valid_hi i)
       lor Char.code (Bytes.get src (dirty_at + i)))
  done;
  read_array t.pol pol_at;
  (* The restored lines/pol invalidate any recency the hint recorded:
     a stale entry could skip a promote that is no longer a no-op. *)
  Array.fill t.hint 0 (Array.length t.hint) (-1);
  pol_at + (8 * Array.length t.pol)
