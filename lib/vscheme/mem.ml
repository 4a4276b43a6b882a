(* Every traced access takes one of two paths:

   - direct recording (the fast path): the current Recording slab and
     its cursor live in this record, so an event is one packed-int
     store into an off-heap Bigarray slab (no write barrier, nothing
     for the GC to scan) plus a cursor bump; only a full slab goes
     out of line ([refill]).  No closure is called per event.
   - the generic sink: one closure call per event, for hooks,
     analyzers and the differential-test oracle.

   [direct]/[sinked] are mutually exclusive; both false means
   untraced, which costs two predictable branches and nothing else. *)

type t = {
  words : Memsim.Chunk.buf;     (* off-heap word store, see [alloc_words] *)
  sink : Memsim.Trace.sink;
  mutable phase : Memsim.Trace.phase;
  mutable phase_bit : int;         (* 0 mutator, 1 collector *)
  mutable direct : bool;           (* append into [slab] *)
  mutable sinked : bool;           (* call [sink] per event *)
  mutable slab : Memsim.Chunk.buf; (* current recording slab *)
  mutable cursor : int;
  mutable cap : int;
  mutable recording : Memsim.Recording.t option;
  mutable sealed_events : int;     (* events in slabs already sealed *)
  mutable phase_start : int;       (* recorded position at last flip *)
  mutable mut_events : int;
  mutable col_events : int;
}

(* Zero-filled off-heap word store.  A private mapping of /dev/zero
   hands out kernel zero pages lazily: creating a 48 MB memory costs no
   up-front memset (a measured ~45 ms per machine on the reference
   container, 20-30% of a whole recording pass), and pages the program
   never touches are never faulted in at all.  The mapping is released
   by the Bigarray finalizer.  Where /dev/zero cannot be mapped, fall
   back to an explicitly zeroed malloc'd Bigarray — malloc alone must
   not be trusted to return zeroed memory for reused chunks. *)
let alloc_words words =
  try
    let fd = Unix.openfile "/dev/zero" [ Unix.O_RDWR ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Bigarray.array1_of_genarray
          (Unix.map_file fd Bigarray.int Bigarray.c_layout false [| words |]))
  with Unix.Unix_error _ | Sys_error _ -> Memsim.Chunk.create_buf words

let create ~sink ~words =
  if words <= 0 then invalid_arg "Mem.create";
  { words = alloc_words words;
    sink;
    phase = Memsim.Trace.Mutator;
    phase_bit = 0;
    direct = false;
    sinked = not (sink == Memsim.Trace.null);
    slab = Memsim.Chunk.empty;
    cursor = 0;
    cap = 0;
    recording = None;
    sealed_events = 0;
    phase_start = 0;
    mut_events = 0;
    col_events = 0
  }

let size_words t = Bigarray.Array1.dim t.words

let recorded_position t = t.sealed_events + t.cursor

let flush_phase_counts t =
  let pos = recorded_position t in
  let d = pos - t.phase_start in
  if d > 0 then begin
    match t.phase with
    | Memsim.Trace.Mutator -> t.mut_events <- t.mut_events + d
    | Memsim.Trace.Collector -> t.col_events <- t.col_events + d
  end;
  t.phase_start <- pos

let set_phase t p =
  flush_phase_counts t;
  t.phase <- p;
  t.phase_bit <- (match p with
    | Memsim.Trace.Mutator -> 0
    | Memsim.Trace.Collector -> 1)

let record_into t r =
  flush_phase_counts t;
  let slab, pos = Memsim.Recording.checkout r in
  t.recording <- Some r;
  t.slab <- slab;
  t.cursor <- pos;
  t.cap <- Memsim.Recording.chunk_events r;
  t.sealed_events <- Memsim.Recording.length r - pos;
  t.phase_start <- recorded_position t;
  t.direct <- true;
  t.sinked <- false

let sync_recording t =
  match t.recording with
  | None -> ()
  | Some r ->
    Memsim.Recording.set_tail r t.cursor;
    flush_phase_counts t

(* Once the recording's owner may release it, this memory must stop
   aliasing its current slab: later traced accesses (a printer, a test
   poking the returned machine) would otherwise store into a slab
   that already belongs to another recording.  The recording's
   checkout ends here too, so its owner may append to it. *)
let finish_recording t =
  (match t.recording with
   | None -> ()
   | Some r ->
     Memsim.Recording.checkin r t.cursor;
     flush_phase_counts t);
  t.recording <- None;
  t.direct <- false;
  t.slab <- Memsim.Chunk.empty;
  t.sealed_events <- recorded_position t;
  t.cursor <- 0;
  t.cap <- 0

let recorded_counts t = (t.mut_events, t.col_events)

(* Out of line on purpose: the per-event path stays small enough to
   inline, and a seal happens once per chunk_events events. *)
let refill t =
  match t.recording with
  | None -> assert false
  | Some r ->
    t.sealed_events <- t.sealed_events + t.cap;
    t.slab <- Memsim.Recording.seal_full r;
    t.cursor <- 0

let[@inline] [@hot] emit t packed =
  let cur = t.cursor in
  Bigarray.Array1.unsafe_set t.slab cur packed;
  let cur = cur + 1 in
  t.cursor <- cur;
  if cur = t.cap then refill t

(* Packed word: Chunk.pack (a lsl 2) kind phase = (a lsl 5) lor
   (kind_code lsl 1) lor phase_bit; kind codes 0/1/2. *)

let[@inline] [@hot] read t a =
  (if t.direct then emit t ((a lsl 5) lor t.phase_bit)
   else if t.sinked then
     t.sink.Memsim.Trace.access (a lsl 2) Memsim.Trace.Read t.phase);
  Bigarray.Array1.get t.words a

let[@inline] [@hot] write t a v =
  (if t.direct then emit t ((a lsl 5) lor 2 lor t.phase_bit)
   else if t.sinked then
     t.sink.Memsim.Trace.access (a lsl 2) Memsim.Trace.Write t.phase);
  Bigarray.Array1.set t.words a v

let[@inline] [@hot] write_alloc t a v =
  (if t.direct then emit t ((a lsl 5) lor 4 lor t.phase_bit)
   else if t.sinked then
     t.sink.Memsim.Trace.access (a lsl 2) Memsim.Trace.Alloc_write t.phase);
  Bigarray.Array1.set t.words a v

let peek t a = Bigarray.Array1.get t.words a

let with_untraced t f =
  let direct = t.direct in
  let sinked = t.sinked in
  t.direct <- false;
  t.sinked <- false;
  match f () with
  | result ->
    t.direct <- direct;
    t.sinked <- sinked;
    result
  | exception e ->
    t.direct <- direct;
    t.sinked <- sinked;
    raise e
