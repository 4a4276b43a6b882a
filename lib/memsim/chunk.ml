(* Flat batches of packed trace events.

   The codec is the historical Recording encoding: one native int per
   event, bits [63:3] byte address, [2:1] kind, [0] phase.  Recording
   slabs use it, so a recording's internal buffers can be consumed by
   [Level.access_chunk] without copying.

   Buffers live off the OCaml heap as int-kind Bigarrays: the producer
   fast path is one unsafe store with no write barrier and no GC
   scanning of slab contents, and an mmap-backed v3 trace file can be
   consumed through the very same type with zero copies. *)

type buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let default_chunk_events = 1 lsl 16

(* --- Buffers ----------------------------------------------------------- *)

let create_buf n =
  let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  Bigarray.Array1.fill b 0;
  b

(* For buffers whose written prefix is tracked by the caller (recording
   slabs, miss streams): every consumer reads only [0, len), so
   the zero fill — a whole extra pass over the slab's memory — buys
   nothing.  Contents beyond the written prefix are unspecified. *)
let create_buf_uninit n =
  Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

let empty = create_buf 0

let of_array a =
  let n = Array.length a in
  let b = create_buf n in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set b i (Array.unsafe_get a i)
  done;
  b

(* --- Codec ------------------------------------------------------------ *)

let kind_code = function
  | Trace.Read -> 0
  | Trace.Write -> 1
  | Trace.Alloc_write -> 2

let kind_of_code = function
  | 0 -> Trace.Read
  | 1 -> Trace.Write
  | 2 -> Trace.Alloc_write
  | n -> failwith (Printf.sprintf "Chunk: bad kind code %d" n)

let[@hot] pack addr kind phase =
  (addr lsl 3)
  lor (kind_code kind lsl 1)
  lor
  match (phase : Trace.phase) with
  | Trace.Mutator -> 0
  | Trace.Collector -> 1

let addr word = word lsr 3

let unpack word =
  ( word lsr 3,
    kind_of_code ((word lsr 1) land 3),
    if word land 1 = 0 then Trace.Mutator else Trace.Collector )
