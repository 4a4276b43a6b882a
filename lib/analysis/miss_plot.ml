type t = {
  level : Memsim.Level.t;
  block_shift : int;
  index_mask : int;
  mutable seen_misses : int;  (* the level's misses of both phases so far *)
  rows : int;
  refs_per_col : int;
  row_scale : int; (* cache blocks per row, >= 1 *)
  mutable grid : Bytes.t list; (* columns, newest first; each rows long *)
  mutable current : Bytes.t;
  mutable ncols : int;
  mutable time : int;
}

let all_misses (s : Memsim.Cache.stats) =
  s.Memsim.Cache.misses + s.Memsim.Cache.collector_misses

let create ~level ~rows ~refs_per_col () =
  if rows <= 0 || refs_per_col <= 0 || Memsim.Level.num_ways level <> 1 then
    invalid_arg "Miss_plot.create";
  let nblocks = Memsim.Level.num_sets level in
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1) in
  let t =
    { level;
      block_shift = log2 (Memsim.Level.geometry level).Memsim.Level.block_bytes;
      index_mask = nblocks - 1;
      seen_misses = all_misses (Memsim.Level.stats level);
      rows = min rows nblocks;
      refs_per_col;
      row_scale = max 1 (nblocks / min rows nblocks);
      grid = [];
      current = Bytes.make (min rows nblocks) ' ';
      ncols = 0;
      time = 0
    }
  in
  t

let flush_column t =
  t.grid <- Bytes.copy t.current :: t.grid;
  Bytes.fill t.current 0 t.rows ' ';
  t.ncols <- t.ncols + 1

let sink t =
  { Memsim.Trace.access =
      (fun addr kind phase ->
        Memsim.Level.access t.level addr kind phase;
        (* Draw allocation misses and interference misses alike: the
           paper's plot records any miss. *)
        let m = all_misses (Memsim.Level.stats t.level) in
        if m <> t.seen_misses then begin
          t.seen_misses <- m;
          let line = (addr lsr t.block_shift) land t.index_mask in
          Bytes.set t.current (min (t.rows - 1) (line / t.row_scale)) '.'
        end;
        match (phase : Memsim.Trace.phase) with
        | Memsim.Trace.Mutator ->
          t.time <- t.time + 1;
          if t.time mod t.refs_per_col = 0 then flush_column t
        | Memsim.Trace.Collector -> ())
  }

let columns t = t.ncols

let max_cols = 110

let render ppf t =
  let cols = Array.of_list (List.rev t.grid) in
  let ncols = Array.length cols in
  if ncols = 0 then Format.fprintf ppf "(no complete time columns)@."
  else begin
    let geometry = Memsim.Level.geometry t.level in
    Format.fprintf ppf
      "cache-miss plot: %a cache, %d-byte blocks; x: %d refs per column, \
       y: cache block (top = 0)@."
      Memsim.Sweep.pp_size geometry.Memsim.Level.size_bytes
      geometry.Memsim.Level.block_bytes t.refs_per_col;
    let rec bands start =
      if start < ncols then begin
        let stop = min ncols (start + max_cols) in
        if start > 0 then Format.fprintf ppf "--- t = %d refs ---@." (start * t.refs_per_col);
        for r = 0 to t.rows - 1 do
          let buf = Buffer.create (stop - start) in
          for c = start to stop - 1 do
            Buffer.add_char buf (Bytes.get cols.(c) r)
          done;
          let line = Buffer.contents buf in
          let len = ref (String.length line) in
          while !len > 0 && line.[!len - 1] = ' ' do
            decr len
          done;
          Format.fprintf ppf "|%s@." (String.sub line 0 !len)
        done;
        bands stop
      end
    in
    bands 0
  end
