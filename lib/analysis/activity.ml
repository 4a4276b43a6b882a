type point = {
  refs : int;
  misses : int;
  alloc_misses : int;
}

type result = {
  points : point array;
  total_refs : int;
  total_misses : int;
  global_miss_ratio : float;
  cum_ratio : float array;
  peak_cum_ratio : float;
  final_drop_factor : float;
  worst_case_blocks : int;
  best_case_blocks : int;
}

type t = {
  level : Memsim.Level.t;
  block_shift : int;
  index_mask : int;
  line_refs : int array;
  line_misses : int array;  (* excluding allocation misses *)
  line_allocs : int array;
  (* the level's mutator miss counters after the last counted event *)
  mutable seen_misses : int;
  mutable seen_allocs : int;
}

let create level =
  if Memsim.Level.num_ways level <> 1 then
    invalid_arg "Activity.create: the level is not direct-mapped";
  let g = Memsim.Level.geometry level in
  let lines = Memsim.Level.num_sets level in
  let s = Memsim.Level.stats level in
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1) in
  { level;
    block_shift = log2 g.Memsim.Level.block_bytes;
    index_mask = lines - 1;
    line_refs = Array.make lines 0;
    line_misses = Array.make lines 0;
    line_allocs = Array.make lines 0;
    seen_misses = s.Memsim.Cache.misses;
    seen_allocs = s.Memsim.Cache.alloc_misses
  }

(* Collector events never move the mutator miss counters, so they are
   forwarded without a counter read. *)
let sink t =
  { Memsim.Trace.access =
      (fun addr kind phase ->
        Memsim.Level.access t.level addr kind phase;
        match (phase : Memsim.Trace.phase) with
        | Memsim.Trace.Collector -> ()
        | Memsim.Trace.Mutator ->
          let i = (addr lsr t.block_shift) land t.index_mask in
          let s = Memsim.Level.stats t.level in
          let allocs = s.Memsim.Cache.alloc_misses - t.seen_allocs in
          let misses = s.Memsim.Cache.misses - t.seen_misses - allocs in
          t.line_refs.(i) <- t.line_refs.(i) + 1;
          t.line_misses.(i) <- t.line_misses.(i) + misses;
          t.line_allocs.(i) <- t.line_allocs.(i) + allocs;
          t.seen_misses <- s.Memsim.Cache.misses;
          t.seen_allocs <- s.Memsim.Cache.alloc_misses)
  }

let analyze t =
  let refs = t.line_refs and misses = t.line_misses and allocs = t.line_allocs in
  let n = Array.length refs in
  let points =
    Array.init n (fun i ->
        { refs = refs.(i); misses = misses.(i); alloc_misses = allocs.(i) })
  in
  Array.sort (fun a b -> compare a.refs b.refs) points;
  let total_refs = Array.fold_left (fun acc p -> acc + p.refs) 0 points in
  let total_misses = Array.fold_left (fun acc p -> acc + p.misses) 0 points in
  let cum_ratio = Array.make n 0.0 in
  let cr = ref 0 in
  let cm = ref 0 in
  let peak = ref 0.0 in
  Array.iteri
    (fun i p ->
      cr := !cr + p.refs;
      cm := !cm + p.misses;
      let ratio =
        if !cr = 0 then 0.0 else float_of_int !cm /. float_of_int !cr
      in
      cum_ratio.(i) <- ratio;
      if ratio > !peak then peak := ratio)
    points;
  let global =
    if total_refs = 0 then 0.0
    else float_of_int total_misses /. float_of_int total_refs
  in
  let top = max 1 (n / 100) in
  let worst = ref 0 in
  let best = ref 0 in
  for i = n - top to n - 1 do
    if i >= 0 then begin
      let p = points.(i) in
      if p.refs > 0 then begin
        let local = float_of_int p.misses /. float_of_int p.refs in
        if local > 0.4 then incr worst else if local < 0.01 then incr best
      end
    end
  done;
  { points;
    total_refs;
    total_misses;
    global_miss_ratio = global;
    cum_ratio;
    peak_cum_ratio = !peak;
    final_drop_factor = (if global > 0.0 then !peak /. global else 1.0);
    worst_case_blocks = !worst;
    best_case_blocks = !best
  }

(* Map a miss ratio onto a canvas row: log scale from 1 (top row) down
   to 10^-decades (bottom row); zero ratios sit on the bottom row. *)
let ratio_row ~rows ~decades ratio =
  if ratio <= 0.0 then rows - 1
  else begin
    let l = -.Float.log10 (Float.min ratio 1.0) in
    let r = int_of_float (l /. float_of_int decades *. float_of_int (rows - 1)) in
    min (rows - 1) (max 0 r)
  end

let render ppf result =
  let n = Array.length result.points in
  if n = 0 then Format.fprintf ppf "(no cache blocks)@."
  else begin
    let rows = 20 and cols = 100 and decades = 5 in
    let canvas = Ascii.create ~rows ~cols in
    Array.iteri
      (fun i p ->
        if p.refs > 0 then begin
          let local = float_of_int p.misses /. float_of_int p.refs in
          let col = i * cols / n in
          let row = ratio_row ~rows ~decades local in
          Ascii.set canvas ~row ~col '.'
        end)
      result.points;
    Array.iteri
      (fun i ratio ->
        let col = i * cols / n in
        let row = ratio_row ~rows ~decades ratio in
        Ascii.set canvas ~row ~col 'C')
      result.cum_ratio;
    let row_labels r =
      if r = 0 then "1e0"
      else if (r * decades) mod (rows - 1) = 0 then
        Printf.sprintf "1e-%d" (r * decades / (rows - 1))
      else ""
    in
    Format.fprintf ppf
      "local miss ratio (.), cumulative miss ratio (C); cache blocks in \
       ascending reference-count order@.";
    Ascii.render ppf ~row_labels canvas;
    Format.fprintf ppf
      "global miss ratio (excl. alloc) %.4f; cumulative peak %.4f; final \
       drop factor %.2f@."
      result.global_miss_ratio result.peak_cum_ratio result.final_drop_factor;
    Format.fprintf ppf
      "top-percentile blocks: %d worst-case (local > 0.4), %d best-case \
       (local < 0.01)@."
      result.worst_case_blocks result.best_case_blocks
  end
