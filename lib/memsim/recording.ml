(* Events are stored packed (see Chunk) in fixed-size slabs rather
   than one growable array: appending never copies existing events, a
   long run has no transient 1.5x memory spike, and the slabs double as
   ready-made chunks for batched and domain-parallel consumers.

   Slabs are off-heap Bigarray buffers (Chunk.buf): the GC never scans
   recorded events, stores skip the write barrier, and a v3 trace file
   mapped with [Unix.map_file] is consumed through exactly the same
   representation — a loaded recording is one slab aliasing the file
   pages, with no decode pass and no allocation proportional to the
   trace.

   Two producers can fill a recording: the generic {!sink} (one closure
   call per event) and a *direct writer* — a hot loop that checks out
   the current slab and cursor ({!checkout}), appends with unsafe
   Bigarray stores, and goes out of line only to seal a full slab
   ({!seal_full}).  Vscheme.Mem's trace fast path is the direct writer;
   the two produce bit-identical recordings.  The heap decoders of
   {!load} fill slabs the same way, storing into the current slab and
   sealing it when full.

   Trace memory has an owner.  A recording's slabs come from a
   process-wide pool of default-size slabs when it has one, and
   {!release} (or {!clear}, to record again) hands them back the
   moment the recording's last replay is done, instead of leaving them
   to Bigarray finalizers whose timing the major GC decides.  A
   long-lived process that records job after job (the serve daemon)
   then reuses already-faulted-in memory and stays at the size of its
   largest recording. *)

module BA1 = Bigarray.Array1

type note = ..

type t = {
  chunk_events : int;              (* capacity of every full slab *)
  mutable slabs : Chunk.buf array; (* slabs.(0..nslabs-1) are full *)
  mutable nslabs : int;
  mutable cur : Chunk.buf;
  mutable cur_len : int;
  mutable direct : bool;           (* a direct writer owns [cur] *)
  mutable owned : bool;
      (* the slabs are this recording's own memory, not a mapped file *)
  mutable lease : kept option;     (* a read-only view pinning a kept trace *)
}

(* A sealed recording that lives in the pool until a producer short of
   slabs evicts it.  [trace] owns the slabs; every lease is a view of
   them. *)
and kept = {
  key : string;
  note : note;
  trace : t;
  v2_bytes : int Atomic.t;  (* [saved_bytes ~format:V2] once known, else -1 *)
}

(* --- Slab pool ------------------------------------------------------------ *)

(* Free slabs and kept traces, shared by every domain: E-H1's cells,
   [repro record]'s workloads and the serve workers create, seal,
   keep and lease recordings on worker domains.  The pool is one
   immutable value behind one Atomic, replaced by compare-and-set, so
   pinning a trace and evicting it are swaps of the same word and can
   never interleave.  Every swap installs a fresh record, so there is
   no ABA hazard.  Only [Chunk.default_chunk_events] slabs are pooled;
   other capacities (tests, small benches) keep allocating. *)
type pool = {
  free : Chunk.buf list;
  kept : (kept * int) list;  (* most recently leased first, with its pins *)
  evictions : int;
}

let pool = Atomic.make { free = []; kept = []; evictions = 0 }

let rec update f =
  let seen = Atomic.get pool in
  if not (Atomic.compare_and_set pool seen (f seen)) then update f

(* Only a recording's own default-size slabs go to the pool: a
   mapped v3 view ([owned = false]) aliases file pages, and a lease
   aliases a kept trace's slabs. *)
let poolable t = t.owned && t.chunk_events = Chunk.default_chunk_events

(* An evicted trace's slabs, in the order [release] pushes them: the
   current slab, written only up to its tail, is drawn last. *)
let owned_slabs t =
  let rec push i acc =
    if i = t.nslabs then acc else push (i + 1) (t.slabs.(i) :: acc)
  in
  if poolable t then push 0 [ t.cur ] else []

(* The least recently leased unpinned trace, and the kept list
   without it. *)
let rec split_lru = function
  | [] -> None
  | entry :: rest -> (
    match split_lru rest with
    | Some (victim, rest) -> Some (victim, entry :: rest)
    | None -> (
      match entry with
      | victim, 0 -> Some (victim, rest)
      | _ -> None))

(* A producer short of slabs evicts before it allocates: the pool
   grows only when every kept trace is pinned, so kept traces cost no
   memory beyond the high-water mark of live recordings. *)
let rec take_slab n =
  if n <> Chunk.default_chunk_events then Chunk.create_buf_uninit n
  else
    let seen = Atomic.get pool in
    match seen.free with
    | slab :: free ->
      if Atomic.compare_and_set pool seen { seen with free } then slab
      else take_slab n
    | [] -> (
      match split_lru seen.kept with
      | Some (victim, kept) ->
        ignore
          (Atomic.compare_and_set pool seen
             { free = owned_slabs victim.trace;
               kept;
               evictions = seen.evictions + 1
             });
        take_slab n
      | None -> Chunk.create_buf_uninit n)

let give_slab slab = update (fun p -> { p with free = slab :: p.free })

(* v1, the retired fixed-stride format, is recognised only to be
   refused. *)
let magic_v1 = 0x5243545243414345L (* "RCTRCACE", arbitrary tag *)
let magic_v2 = 0x3256545243414345L (* same tag family, "…V2" high byte pair *)
let magic_v3 = 0x3356545243414345L (* same tag family, "…V3" high byte pair *)

type format =
  | V2
  | V3

let format_label = function
  | V2 -> "v2"
  | V3 -> "v3"

let format_of_label = function
  | "v2" -> Some V2
  | "v3" -> Some V3
  | _ -> None

let create ?(initial_capacity = Chunk.default_chunk_events) () =
  let chunk_events = max 16 initial_capacity in
  { chunk_events;
    slabs = Array.make 8 Chunk.empty;
    nslabs = 0;
    (* The recording tracks the written prefix of every slab, so
       neither a pooled slab's stale contents nor a fresh slab's
       missing zero fill is ever read. *)
    cur = take_slab chunk_events;
    cur_len = 0;
    direct = false;
    owned = true;
    lease = None
  }

let chunk_events t = t.chunk_events

let seal_current t =
  if t.nslabs = Array.length t.slabs then begin
    let bigger = Array.make (2 * t.nslabs) Chunk.empty in
    Array.blit t.slabs 0 bigger 0 t.nslabs;
    t.slabs <- bigger
  end;
  t.slabs.(t.nslabs) <- t.cur;
  t.nslabs <- t.nslabs + 1;
  t.cur <- take_slab t.chunk_events;
  t.cur_len <- 0

let append t word =
  if t.direct then
    invalid_arg "Recording.append: recording is checked out by a direct writer";
  (* A memory-mapped, leased or released recording's current slab is
     full to its capacity: the bound check turns an append into a clean
     error instead of a store past the mapping or into a kept trace. *)
  if t.cur_len >= BA1.dim t.cur then
    invalid_arg
      (if Option.is_some t.lease then
         "Recording.append: recording is a lease on a kept trace"
       else if t.nslabs = 0 then "Recording.append: recording was released"
       else "Recording.append: recording is read-only (memory-mapped)");
  BA1.unsafe_set t.cur t.cur_len word;
  t.cur_len <- t.cur_len + 1;
  if t.cur_len = t.chunk_events then seal_current t

let sink t =
  { Trace.access = (fun addr kind phase -> append t (Chunk.pack addr kind phase)) }

let length t = (t.nslabs * t.chunk_events) + t.cur_len

let refuse_lease t what =
  if Option.is_some t.lease then
    invalid_arg ("Recording." ^ what ^ ": recording is a lease on a kept trace")

let clear t =
  refuse_lease t "clear";
  if poolable t then
    for i = 0 to t.nslabs - 1 do
      give_slab t.slabs.(i)
    done;
  Array.fill t.slabs 0 t.nslabs Chunk.empty;
  t.nslabs <- 0;
  t.cur_len <- 0;
  t.direct <- false

(* A lease shares its kept trace's slab directory, so dropping it
   swaps in an empty one instead of clearing the shared array. *)
let unpin t k =
  t.lease <- None;
  t.slabs <- [||];
  t.nslabs <- 0;
  t.cur <- Chunk.empty;
  t.cur_len <- 0;
  update (fun p ->
      { p with
        kept =
          List.map
            (fun (e, pins) -> (e, if e == k then pins - 1 else pins))
            p.kept
      })

let release t =
  match t.lease with
  | Some k -> unpin t k
  | None ->
    if poolable t then give_slab t.cur;
    clear t;
    t.cur <- Chunk.empty;
    t.owned <- false

(* --- Kept traces -------------------------------------------------------- *)

(* A read-only view of [k]'s events.  Its current slab is cut to the
   written prefix, so [append]'s bound check refuses every store. *)
let view k =
  let o = k.trace in
  { o with cur = BA1.sub o.cur 0 o.cur_len; owned = false; lease = Some k }

let keep ~key note t =
  refuse_lease t "keep";
  let k =
    { key; note; trace = { t with direct = false }; v2_bytes = Atomic.make (-1) }
  in
  update (fun p -> { p with kept = (k, 1) :: p.kept });
  t.cur <- (view k).cur;
  t.direct <- false;
  t.owned <- false;
  t.lease <- Some k

(* The first entry under [key], and the kept list without it. *)
let rec pull key = function
  | [] -> None
  | ((k, _) as entry) :: rest when String.equal k.key key -> Some (entry, rest)
  | entry :: rest ->
    Option.map (fun (found, rest) -> (found, entry :: rest)) (pull key rest)

let rec lease key =
  let seen = Atomic.get pool in
  match pull key seen.kept with
  | None -> None
  | Some ((k, pins), rest) ->
    if Atomic.compare_and_set pool seen { seen with kept = (k, pins + 1) :: rest }
    then Some (view k, k.note)
    else lease key

type pool_stats = {
  free_slabs : int;
  kept_traces : int;
  evictions : int;
}

let pool_stats () =
  let p = Atomic.get pool in
  { free_slabs = List.length p.free;
    kept_traces = List.length p.kept;
    evictions = p.evictions
  }

(* --- Direct writer ------------------------------------------------------ *)

let checkout t =
  (* The direct writer stores without bound checks, so a recording
     with no writable slab (mapped, leased or released) must refuse it
     here. *)
  refuse_lease t "checkout";
  if BA1.dim t.cur = 0 then
    invalid_arg "Recording.checkout: recording is read-only";
  t.direct <- true;
  (t.cur, t.cur_len)

let seal_full t =
  seal_current t;
  t.cur

let set_tail t n =
  if n < 0 || n >= t.chunk_events then invalid_arg "Recording.set_tail";
  t.cur_len <- n

let checkin t n =
  set_tail t n;
  t.direct <- false

(* --- In-memory access --------------------------------------------------- *)

(* A slab wider than the default chunk (a mapped v3 file is one slab
   as long as the trace) is handed out in default-size sub-views, so
   every consumer sees the same chunk boundaries — attribution samples
   by chunk, and miss-stream buffers are sized per chunk — whatever
   format the trace was loaded from.  [BA1.sub] copies nothing. *)
let iter_chunks t f =
  let step = Chunk.default_chunk_events in
  let chunks buf len =
    if len <= step then f buf len
    else
      let off = ref 0 in
      while !off < len do
        let n = min step (len - !off) in
        f (BA1.sub buf !off n) n;
        off := !off + n
      done
  in
  for i = 0 to t.nslabs - 1 do
    chunks t.slabs.(i) t.chunk_events
  done;
  if t.cur_len > 0 then chunks t.cur t.cur_len

(* Decoded in place rather than through [Chunk.unpack]: no tuple per
   event.  [Chunk.kind_of_code] still rejects kind code 3. *)
let replay t sink =
  let access = sink.Trace.access in
  iter_chunks t (fun buf len ->
      for i = 0 to len - 1 do
        let w = BA1.unsafe_get buf i in
        access (w lsr 3)
          (Chunk.kind_of_code ((w lsr 1) land 3))
          (if w land 1 = 0 then Trace.Mutator else Trace.Collector)
      done)

let word t i =
  let slab = i / t.chunk_events in
  let off = i mod t.chunk_events in
  if slab < t.nslabs then BA1.get t.slabs.(slab) off else BA1.get t.cur off

let event t i =
  if i < 0 || i >= length t then invalid_arg "Recording.event";
  Chunk.unpack (word t i)

let equal a b =
  length a = length b
  &&
  let n = length a in
  let rec loop i = i >= n || (word a i = word b i && loop (i + 1)) in
  loop 0

(* --- Diagnostics --------------------------------------------------------- *)

(* Every load failure names the detected format version and the byte
   offset of the offending field or event, so a corrupt multi-gigabyte
   trace can be inspected with a hex dump straight at the reported
   offset. *)
let fail_at ~version ~byte fmt =
  Printf.ksprintf
    (fun msg ->
      failwith (Printf.sprintf "Recording.load (%s, byte %d): %s" version byte msg))
    fmt

(* --- Fixed-stride writer (v3) -------------------------------------------- *)

(* The unchecked native-order 64-bit store behind Bytes.set_int64_le,
   without its per-word bounds check: every chunk fits the scratch. *)
external unsafe_set_int64 : Bytes.t -> int -> int64 -> unit
  = "%caml_bytes_set64u"

external bswap_int64 : int64 -> int64 = "%bswap_int64"

(* One scratch buffer for the whole file, not a fresh Bytes per
   chunk: a long recording is thousands of chunks.  [iter_chunks]
   hands out at most [Chunk.default_chunk_events] words at a time. *)
let output_words oc t =
  let scratch = Bytes.create (8 * Chunk.default_chunk_events) in
  iter_chunks t (fun buf len ->
      for i = 0 to len - 1 do
        let w = Int64.of_int (BA1.unsafe_get buf i) in
        unsafe_set_int64 scratch (8 * i)
          (if Sys.big_endian then bswap_int64 w else w)
      done;
      output oc scratch 0 (8 * len))

(* --- v2 on-disk format: delta + varint --------------------------------- *)

(* Header: 8-byte magic, 1 version byte (2), 8-byte LE event count.
   Per event: the byte-address delta from the previous event's address
   (zigzag-coded) with kind and phase folded into the low bits.  First
   byte: [7] continuation, [6:3] low 4 bits of the zigzag delta, [2:1]
   kind, [0] phase; remaining zigzag bits follow as standard LEB128.
   Allocation sweeps and re-references have tiny deltas, so most
   events are 1 byte (|delta| <= 8 bytes) or 2 (|delta| <= 1 KB),
   vs. v3's flat 8. *)

let io_buf_bytes = 1 lsl 16

(* The longest event a legal file holds: the first byte carries 4 of
   the zigzag delta's 63 bits, and 9 LEB128 bytes carry the other 59. *)
let max_event_bytes = 10

(* The one v2 encoder, writing through [out buf off len]: a channel
   when saving, a byte counter when only the size is wanted.  Bytes go
   into a local window through a local cursor, flushed whenever an
   event might not fit. *)
let encode_v2 t out =
  let hdr = Bytes.create 17 in
  Bytes.set_int64_le hdr 0 magic_v2;
  Bytes.set hdr 8 '\002';
  Bytes.set_int64_le hdr 9 (Int64.of_int (length t));
  out hdr 0 17;
  let buf = Bytes.create io_buf_bytes in
  let pos = ref 0 in
  let prev = ref 0 in
  for s = 0 to t.nslabs do
    let slab = if s < t.nslabs then t.slabs.(s) else t.cur in
    let len = if s < t.nslabs then t.chunk_events else t.cur_len in
    for i = 0 to len - 1 do
      if !pos > io_buf_bytes - max_event_bytes then begin
        out buf 0 !pos;
        pos := 0
      end;
      let w = BA1.unsafe_get slab i in
      let addr = w lsr 3 in
      let delta = addr - !prev in
      prev := addr;
      let zz = (delta lsl 1) lxor (delta asr 62) in
      let b0 = ((zz land 0xf) lsl 3) lor (w land 7) in
      let rest = zz lsr 4 in
      if rest = 0 then begin
        Bytes.unsafe_set buf !pos (Char.unsafe_chr b0);
        incr pos
      end
      else begin
        Bytes.unsafe_set buf !pos (Char.unsafe_chr (b0 lor 0x80));
        let r = ref rest in
        let p = ref (!pos + 1) in
        while !r >= 0x80 do
          Bytes.unsafe_set buf !p (Char.unsafe_chr ((!r land 0x7f) lor 0x80));
          r := !r lsr 7;
          incr p
        done;
        Bytes.unsafe_set buf !p (Char.unsafe_chr !r);
        pos := !p + 1
      end
    done
  done;
  out buf 0 !pos

let save_v2 t oc = encode_v2 t (output oc)

let max_addr = max_int lsr 3

(* Read from [ic] into [buf] after its first [keep] bytes until the
   window ([io_buf_bytes]) is full or the channel is at end of file;
   return the fill. *)
let rec fill_window ic buf keep =
  if keep = io_buf_bytes then keep
  else
    match input ic buf keep (io_buf_bytes - keep) with
    | 0 -> keep
    | n -> fill_window ic buf (keep + n)

(* Where the v2 decoder stands between runs of {!decode_v2_run}. *)
type v2_cursor = {
  mutable pos : int;   (* window index of the next event's first byte *)
  mutable prev : int;  (* the previous event's address *)
}

type v2_stop =
  | Boundary     (* at [limit], or the slab holds [last] events *)
  | Bad_kind
  | Bad_varint
  | Bad_address
  | Cut_short    (* the file ends inside the event *)

(* Decode events into the current slab of [t] while they start
   before window index [limit] and it holds fewer than [last].  No
   byte read is
   bounds-checked: the caller keeps every event that starts before
   [limit] inside [buf.[0 .. avail]], and [buf.[avail]] is 0, which
   ends any varint, so an event that reads it is cut short.  The loop
   makes no call, so the compiler need not spill its state around one.
   On an error the cursor rests on the bad event. *)
let decode_v2_run c buf t ~avail ~limit ~last =
  let slab = t.cur in
  let p = ref c.pos and prev = ref c.prev and n = ref t.cur_len in
  let stop = ref Boundary in
  while !stop == Boundary && !p < limit && !n < last do
    let b0 = Char.code (Bytes.unsafe_get buf !p) in
    let tag = b0 land 7 in
    let zz = ref ((b0 lsr 3) land 0xf) in
    let q = ref (!p + 1) in
    if tag land 6 = 6 then stop := Bad_kind
    else if b0 land 0x80 <> 0 then begin
      let shift = ref 4 and more = ref true in
      while !more do
        let b = Char.code (Bytes.unsafe_get buf !q) in
        incr q;
        if !shift > 62 then begin
          stop := Bad_varint;
          more := false
        end
        else begin
          zz := !zz lor ((b land 0x7f) lsl !shift);
          shift := !shift + 7;
          more := b land 0x80 <> 0
        end
      done
    end;
    if !q > avail then stop := Cut_short
    else if !stop == Boundary then begin
      let addr = !prev + ((!zz lsr 1) lxor (- (!zz land 1))) in
      if addr < 0 || addr > max_addr then stop := Bad_address
      else begin
        BA1.unsafe_set slab !n ((addr lsl 3) lor tag);
        prev := addr;
        p := !q;
        incr n
      end
    end
  done;
  c.pos <- !p;
  c.prev <- !prev;
  t.cur_len <- !n;
  !stop

(* The decoder reads a 64 KB window [buf] whose byte [pos] is file
   offset [base + pos].  At every event boundary it refills unless
   [max_event_bytes + 1] bytes are buffered or the file is exhausted,
   so an event can run past the buffered bytes only at the end of the
   file, where that is a truncation.  Events are stored straight into
   the current slab, which is sealed when full. *)
let load_v2 ic ~file_bytes =
  if file_bytes < 17 then
    fail_at ~version:"v2" ~byte:file_bytes
      "truncated file (%s of the %s header)" (Size.to_string file_bytes)
      (Size.to_string 17);
  let hdr = Bytes.create 9 in
  really_input ic hdr 0 9;
  let version = Char.code (Bytes.get hdr 0) in
  if version <> 2 then
    fail_at ~version:"v2" ~byte:8 "unsupported format version %d" version;
  let len = Int64.to_int (Bytes.get_int64_le hdr 1) in
  if len < 0 then fail_at ~version:"v2" ~byte:9 "corrupt event count";
  let t = create ~initial_capacity:Chunk.default_chunk_events () in
  let buf = Bytes.create (io_buf_bytes + 1) in
  let c = { pos = 0; prev = 0 } in
  let base = ref 17 and avail = ref 0 and eof = ref false in
  while length t < len do
    if !avail - c.pos <= max_event_bytes && not !eof then begin
      let keep = !avail - c.pos in
      Bytes.blit buf c.pos buf 0 keep;
      base := !base + c.pos;
      c.pos <- 0;
      avail := fill_window ic buf keep;
      Bytes.set buf !avail '\000';
      eof := !avail < io_buf_bytes
    end;
    let stop =
      (* Only at end of file can the window run dry. *)
      if c.pos = !avail then Cut_short
      else
        decode_v2_run c buf t ~avail:!avail
          ~limit:(if !eof then !avail else !avail - max_event_bytes)
          ~last:(min t.chunk_events (t.cur_len + len - length t))
    in
    let byte = !base + c.pos and event = length t in
    (match stop with
     | Boundary -> ()
     | Bad_kind ->
       fail_at ~version:"v2" ~byte "event %d has corrupt kind bits" event
     | Bad_varint -> fail_at ~version:"v2" ~byte "event %d varint overflows" event
     | Bad_address ->
       fail_at ~version:"v2" ~byte "event %d has corrupt address" event
     | Cut_short ->
       fail_at ~version:"v2" ~byte:file_bytes "truncated file (%d of %d events)"
         event len);
    if t.cur_len = t.chunk_events then seal_current t
  done;
  let consumed = !base + c.pos in
  if consumed < file_bytes then
    fail_at ~version:"v2" ~byte:consumed
      "%d trailing bytes after the declared %d events" (file_bytes - consumed)
      len;
  t

(* --- v3 on-disk format: mmap-native fixed stride ------------------------ *)

(* Header (24 bytes = 3 words, so the payload starts word-aligned):
     bytes  0..7   magic (LE)
     byte   8      version (3)
     byte   9      stride in bytes per event (8)
     bytes 10..15  reserved (zero)
     bytes 16..23  event count (LE)
   Payload: count * 8-byte LE packed words — the in-memory slab
   representation verbatim.  On a little-endian host the whole payload
   is mapped with [Unix.map_file] and consumed in place: load is O(1),
   allocates nothing proportional to the trace, and the sweep reads
   cache-cold events straight off the page cache.

   The int-kind Bigarray view cannot observe bit 63 of a mapped word
   (OCaml ints are 63-bit), so the mmap path validates the header and
   geometry only; the deep per-word audit (word width, kind bits)
   lives in the heap decoder [load_words] and in the raw-byte scanner
   of [repro check] (Check.Trace_file.scan_v3). *)

let v3_header_bytes = 24
let v3_stride = 8

(* The heap decoder: read the [len] payload words from [ic] into a
   fresh recording, validating that each word round-trips through the
   native int (a file written on a platform with wider ints, or a
   corrupt word using bit 63, would otherwise be silently truncated)
   and that no event carries the invalid kind code 3.  Each batch is
   one slab's worth of words, stored straight into the current slab,
   which is sealed when full. *)
let load_words ic ~len =
  let t = create ~initial_capacity:Chunk.default_chunk_events () in
  let buf = Bytes.create (8 * t.chunk_events) in
  let decoded = ref 0 in
  while !decoded < len do
    let n = min (len - !decoded) t.chunk_events in
    really_input ic buf 0 (8 * n);
    let slab = t.cur in
    for i = 0 to n - 1 do
      let w64 = Bytes.get_int64_le buf (8 * i) in
      let w = Int64.to_int w64 in
      let byte = v3_header_bytes + (8 * (!decoded + i)) in
      if not (Int64.equal (Int64.of_int w) w64) then
        fail_at ~version:"v3" ~byte
          "event %d does not fit a native int (written on a wider platform, \
           or corrupt)"
          (!decoded + i);
      if w land 6 = 6 then
        fail_at ~version:"v3" ~byte "event %d has corrupt kind bits"
          (!decoded + i);
      BA1.unsafe_set slab i w
    done;
    decoded := !decoded + n;
    if n = t.chunk_events then seal_current t else t.cur_len <- n
  done;
  t

let save_v3 t oc =
  let hdr = Bytes.create v3_header_bytes in
  Bytes.fill hdr 0 v3_header_bytes '\000';
  Bytes.set_int64_le hdr 0 magic_v3;
  Bytes.set hdr 8 '\003';
  Bytes.set hdr 9 (Char.chr v3_stride);
  Bytes.set_int64_le hdr 16 (Int64.of_int (length t));
  output_bytes oc hdr;
  output_words oc t

(* A mapped recording is a single full slab aliasing the file pages
   ([iter_chunks] cuts it into default-size chunks); its current slab
   has zero capacity, so appends fail cleanly (see
   [append]) and every read path works unchanged. *)
let of_mapped payload count =
  if count = 0 then create ()
  else
    { chunk_events = count;
      slabs = [| payload |];
      nslabs = 1;
      cur = Chunk.empty;
      cur_len = 0;
      direct = false;
      (* A mapping of exactly [Chunk.default_chunk_events] events has a
         pooled slab's shape; only this flag keeps it out of the pool. *)
      owned = false;
      lease = None
    }

(* [hdr] holds the first [got] bytes of the file, all 24 when the
   file has them; [fd] stands just past them.  The size checks take
   the file size from the mapping when there is one ([Unix.map_file]
   sizes it from the descriptor), and from [fstat] otherwise.  With
   [map] false the payload is always decoded on the heap. *)
let load_v3 fd hdr ~got ~channel_at ~map =
  if got < v3_header_bytes then
    fail_at ~version:"v3" ~byte:got "truncated file (%s of the %s header)"
      (Size.to_string got)
      (Size.to_string v3_header_bytes);
  let version = Char.code (Bytes.get hdr 8) in
  if version <> 3 then
    fail_at ~version:"v3" ~byte:8 "unsupported format version %d" version;
  let stride = Char.code (Bytes.get hdr 9) in
  if stride <> v3_stride then
    fail_at ~version:"v3" ~byte:9 "unsupported event stride %d (expected %d)"
      stride v3_stride;
  let count = Int64.to_int (Bytes.get_int64_le hdr 16) in
  if count < 0 then fail_at ~version:"v3" ~byte:16 "corrupt event count";
  let check_size file_bytes =
    let payload = file_bytes - v3_header_bytes in
    if payload mod 8 <> 0 || payload / 8 <> count then
      fail_at ~version:"v3" ~byte:16
        "header declares %d events but the %s payload holds %d%s" count
        (Size.to_string payload) (payload / 8)
        (if payload mod 8 = 0 then "" else " and a partial word")
  in
  (* The payload bytes are little-endian; mapping them as native words
     is only a decode on a little-endian host.  Big-endian hosts, files
     that are not whole words and filesystems that refuse mmap fall
     back to the heap decoder, which also performs the per-word
     audit. *)
  let decode () =
    check_size (Unix.fstat fd).Unix.st_size;
    load_words (channel_at v3_header_bytes) ~len:count
  in
  if Sys.big_endian || not map then decode ()
  else
    (* Map header and payload and drop the header by sub-view:
       map_file offsets must be page-aligned, a word-aligned sub costs
       nothing. *)
    match Unix.map_file fd Bigarray.int Bigarray.c_layout false [| -1 |] with
    | exception (Failure _ | Unix.Unix_error _) -> decode ()
    | map ->
      let words = Bigarray.array1_of_genarray map in
      check_size (8 * BA1.dim words);
      of_mapped (BA1.sub words 3 count) count

(* --- Entry points ------------------------------------------------------- *)

let save ?(format = V2) t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      match format with
      | V2 -> save_v2 t oc
      | V3 -> save_v3 t oc)

(* The v2 size: the encoder run into a byte counter. *)
let count_v2 t =
  let n = ref 0 in
  encode_v2 t (fun _ _ len -> n := !n + len);
  !n

let saved_bytes ?(format = V2) t =
  match (format, t.lease) with
  | V3, _ -> v3_header_bytes + (8 * length t)
  | V2, None -> count_v2 t
  | V2, Some k ->
    (* A kept trace never changes, so its size is counted once. *)
    let known = Atomic.get k.v2_bytes in
    if known >= 0 then known
    else begin
      let n = count_v2 t in
      Atomic.set k.v2_bytes n;
      n
    end

(* Read from [fd] into [buf] after its first [got] bytes until [buf]
   is full or the file ends; return the fill.  A file at least as long
   as [buf] takes one read. *)
let rec read_upto fd buf got =
  if got = Bytes.length buf then got
  else
    match Unix.read fd buf got (Bytes.length buf - got) with
    | 0 -> got
    | n -> read_upto fd buf (got + n)

(* Every format goes through one descriptor.  One read takes the magic
   and the whole v3 header, and a v3 load maps the same descriptor:
   open, read, map, close.  v2, and v3 when it is decoded, read through
   a channel on it, which then owns the descriptor, so it is closed
   exactly once either way.  I/O errors surface as [Sys_error], as
   from the Stdlib channels. *)
let load_file ~map path =
  let sys_error e = raise (Sys_error (path ^ ": " ^ Unix.error_message e)) in
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error (e, _, _) -> sys_error e
  | fd -> (
    let channel = ref None in
    let channel_at byte =
      ignore (Unix.lseek fd byte Unix.SEEK_SET);
      let ic = Unix.in_channel_of_descr fd in
      channel := Some ic;
      ic
    in
    try
      Fun.protect
        ~finally:(fun () ->
          match !channel with
          | Some ic -> close_in ic
          | None -> Unix.close fd)
        (fun () ->
          let hdr = Bytes.create v3_header_bytes in
          let got = read_upto fd hdr 0 in
          if got < 16 then
            failwith
              (Printf.sprintf
                 "Recording.load (byte 0): truncated file (%s, smaller than \
                  any header)"
                 (Size.to_string got));
          let tag = Bytes.get_int64_le hdr 0 in
          if Int64.equal tag magic_v2 then
            load_v2 (channel_at 8) ~file_bytes:(Unix.fstat fd).Unix.st_size
          else if Int64.equal tag magic_v3 then
            load_v3 fd hdr ~got ~channel_at ~map
          else if Int64.equal tag magic_v1 then
            fail_at ~version:"v1" ~byte:0
              "format v1 is retired; re-record the trace as v2 or v3"
          else
            failwith
              (Printf.sprintf
                 "Recording.load (byte 0): not a trace recording (magic 0x%Lx)"
                 tag))
    with Unix.Unix_error (e, _, _) -> sys_error e)

let load path = load_file ~map:true path
let load_unmapped path = load_file ~map:false path
