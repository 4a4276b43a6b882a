(* The retired v1 trace layout, written here only so the tests can
   hand old files to [Recording.load] and [Check.Trace_file.scan]: a
   16-byte header (the little-endian magic "RCTRCACE", then the event
   count) followed by each packed event as 8 little-endian bytes. *)

let magic = 0x5243545243414345L

let save recording path =
  Out_channel.with_open_bin path (fun oc ->
      let word = Bytes.create 8 in
      let put w =
        Bytes.set_int64_le word 0 w;
        Out_channel.output_bytes oc word
      in
      put magic;
      put (Int64.of_int (Memsim.Recording.length recording));
      Memsim.Recording.iter_chunks recording (fun buf len ->
          for i = 0 to len - 1 do
            put (Int64.of_int (Bigarray.Array1.get buf i))
          done))
