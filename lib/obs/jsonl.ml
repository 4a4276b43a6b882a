type t = {
  oc : out_channel;
  batch_bytes : int;
  buf : Buffer.t;
  mutable closed : bool;
}

let to_channel ?(batch_bytes = 64 * 1024) oc =
  if batch_bytes <= 0 then invalid_arg "Obs.Jsonl: batch_bytes must be positive";
  { oc;
    batch_bytes;
    buf = Buffer.create (min batch_bytes 4096);
    closed = false
  }

let flush_batch t =
  if Buffer.length t.buf > 0 then begin
    Buffer.output_buffer t.oc t.buf;
    Buffer.clear t.buf
  end

let write t j =
  if t.closed then invalid_arg "Obs.Jsonl.write: writer is closed";
  Json.to_buffer t.buf j;
  Buffer.add_char t.buf '\n';
  if Buffer.length t.buf >= t.batch_bytes then flush_batch t

let flush t =
  if not t.closed then begin
    flush_batch t;
    Stdlib.flush t.oc
  end

let close t =
  if not t.closed then begin
    flush_batch t;
    Stdlib.flush t.oc;
    t.closed <- true
  end
