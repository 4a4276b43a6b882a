(* Attribution side tables and profiles.

   The table is a pair of position-indexed logs kept alongside a
   recording: region-map epochs (published by the heap at allocation
   window changes and collection boundaries) and allocation-site runs
   (published by the VM before each allocating store).  Both are
   parallel growable int arrays so the sweep's per-event catch-up loop
   is plain [unsafe_get]s — no tuples, no boxing.  Positions are event
   indices into the recording the table was captured with, and are
   monotone by construction, so a replay consumes each log with a
   single forward cursor.

   A profile is the flat accumulator the attributing fast path
   ([Level.access_chunk_attr]) writes into: one slot per
   (region × phase) for each counter the cache keeps, per-site
   allocation counters, and a miss heat grid over
   (address bucket × event-index bucket). *)

(* --- Regions ------------------------------------------------------------ *)

let num_regions = 5
let region_static = 0
let region_tospace = 2
let region_fromspace = 3

let region_name = function
  | 0 -> "static"
  | 1 -> "stack"
  | 2 -> "tospace"
  | 3 -> "fromspace"
  | 4 -> "free"
  | r -> invalid_arg (Printf.sprintf "Attr.region_name: %d" r)

let num_slots = 2 * num_regions

(* --- The side table ----------------------------------------------------- *)

type table = {
  mutable n_epochs : int;
  mutable epoch_pos : int array;
  mutable epoch_stack_lo : int array;
  mutable epoch_dyn_lo : int array;
  mutable epoch_to_lo : int array;
  mutable epoch_to_hi : int array;
  mutable epoch_from_lo : int array;
  mutable epoch_from_hi : int array;
  mutable n_runs : int;
  mutable run_pos : int array;
  mutable run_site : int array;
  mutable n_sites : int;
  mutable site_names : string array;
  site_ids : (string, int) Hashtbl.t;
  mutable sites_clipped : bool;
}

let max_sites = 4096
let runtime_site = 0
let overflow_site_name = "(overflow)"

let create () =
  let t =
    { n_epochs = 0;
      epoch_pos = Array.make 8 0;
      epoch_stack_lo = Array.make 8 0;
      epoch_dyn_lo = Array.make 8 0;
      epoch_to_lo = Array.make 8 0;
      epoch_to_hi = Array.make 8 0;
      epoch_from_lo = Array.make 8 0;
      epoch_from_hi = Array.make 8 0;
      n_runs = 0;
      run_pos = Array.make 64 0;
      run_site = Array.make 64 0;
      n_sites = 0;
      site_names = Array.make 64 "";
      site_ids = Hashtbl.create 64;
      sites_clipped = false;
    }
  in
  (* Site 0 exists in every table: everything not claimed by an
     explicit allocating instruction. *)
  t.site_names.(0) <- "(runtime)";
  Hashtbl.replace t.site_ids "(runtime)" 0;
  t.n_sites <- 1;
  t.run_pos.(0) <- 0;
  t.run_site.(0) <- runtime_site;
  t.n_runs <- 1;
  t

let grow a len = Array.append a (Array.make (Array.length a) len)

let intern_site t name =
  match Hashtbl.find_opt t.site_ids name with
  | Some id -> id
  | None ->
    if t.n_sites >= max_sites then begin
      t.sites_clipped <- true;
      match Hashtbl.find_opt t.site_ids overflow_site_name with
      | Some id -> id
      | None ->
        (* Reserve the last slot for the overflow bucket; n_sites is
           already max_sites, so rebind the count to include it. *)
        let id = t.n_sites in
        if id >= Array.length t.site_names then
          t.site_names <- grow t.site_names "";
        t.site_names.(id) <- overflow_site_name;
        Hashtbl.replace t.site_ids overflow_site_name id;
        t.n_sites <- id + 1;
        id
    end
    else begin
      let id = t.n_sites in
      if id >= Array.length t.site_names then
        t.site_names <- grow t.site_names "";
      t.site_names.(id) <- name;
      Hashtbl.replace t.site_ids name id;
      t.n_sites <- id + 1;
      id
    end

let num_sites t = t.n_sites

let site_name t i =
  if i < 0 || i >= t.n_sites then
    invalid_arg (Printf.sprintf "Attr.site_name: %d of %d" i t.n_sites);
  t.site_names.(i)

let sites_clipped t = t.sites_clipped

let publish_map t ~pos ~stack_lo ~dynamic_lo ~to_lo ~to_hi ~from_lo ~from_hi =
  if pos < 0 then invalid_arg "Attr.publish_map: negative position";
  if stack_lo < 0 || dynamic_lo < stack_lo then
    invalid_arg "Attr.publish_map: static/stack bounds out of order";
  if to_hi < to_lo || from_hi < from_lo then
    invalid_arg "Attr.publish_map: inverted semispace bounds";
  let n = t.n_epochs in
  if n > 0 && pos < t.epoch_pos.(n - 1) then
    invalid_arg "Attr.publish_map: positions must be monotone";
  let i =
    if n > 0 && t.epoch_pos.(n - 1) = pos then n - 1
    else begin
      if n >= Array.length t.epoch_pos then begin
        t.epoch_pos <- grow t.epoch_pos 0;
        t.epoch_stack_lo <- grow t.epoch_stack_lo 0;
        t.epoch_dyn_lo <- grow t.epoch_dyn_lo 0;
        t.epoch_to_lo <- grow t.epoch_to_lo 0;
        t.epoch_to_hi <- grow t.epoch_to_hi 0;
        t.epoch_from_lo <- grow t.epoch_from_lo 0;
        t.epoch_from_hi <- grow t.epoch_from_hi 0
      end;
      t.n_epochs <- n + 1;
      n
    end
  in
  t.epoch_pos.(i) <- pos;
  t.epoch_stack_lo.(i) <- stack_lo;
  t.epoch_dyn_lo.(i) <- dynamic_lo;
  t.epoch_to_lo.(i) <- to_lo;
  t.epoch_to_hi.(i) <- to_hi;
  t.epoch_from_lo.(i) <- from_lo;
  t.epoch_from_hi.(i) <- from_hi

let num_epochs t = t.n_epochs

let note_site t ~pos site =
  if site < 0 || site >= t.n_sites then
    invalid_arg (Printf.sprintf "Attr.note_site: unknown site %d" site);
  if pos < 0 then invalid_arg "Attr.note_site: negative position";
  let n = t.n_runs in
  let last = n - 1 in
  if pos < t.run_pos.(last) then
    invalid_arg "Attr.note_site: positions must be monotone";
  if t.run_site.(last) = site then ()
  else if t.run_pos.(last) = pos then t.run_site.(last) <- site
  else begin
    if n >= Array.length t.run_pos then begin
      t.run_pos <- grow t.run_pos 0;
      t.run_site <- grow t.run_site 0
    end;
    t.run_pos.(n) <- pos;
    t.run_site.(n) <- site;
    t.n_runs <- n + 1
  end

let num_runs t = t.n_runs

(* --- Persistence --------------------------------------------------------- *)

(* Sidecar format: magic, then counts and the raw logs as little-endian
   64-bit words; site names length-prefixed.  Saved next to a v2/v3
   recording so a sweep of the saved trace stays attributable. *)

let magic = "ATTRSID1"

let save t path =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (match
     let buf = Buffer.create (1 lsl 16) in
     let word n = Buffer.add_int64_le buf (Int64.of_int n) in
     Buffer.add_string buf magic;
     word t.n_epochs;
     for i = 0 to t.n_epochs - 1 do
       word t.epoch_pos.(i);
       word t.epoch_stack_lo.(i);
       word t.epoch_dyn_lo.(i);
       word t.epoch_to_lo.(i);
       word t.epoch_to_hi.(i);
       word t.epoch_from_lo.(i);
       word t.epoch_from_hi.(i)
     done;
     word t.n_runs;
     for i = 0 to t.n_runs - 1 do
       word t.run_pos.(i);
       word t.run_site.(i)
     done;
     word t.n_sites;
     for i = 0 to t.n_sites - 1 do
       word (String.length t.site_names.(i));
       Buffer.add_string buf t.site_names.(i)
     done;
     word (if t.sites_clipped then 1 else 0);
     Buffer.output_buffer oc buf;
     close_out oc
   with
   | () -> ()
   | exception e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let fail fmt = Printf.ksprintf failwith ("Attr.load: " ^^ fmt) in
      let got =
        try really_input_string ic 8
        with End_of_file -> fail "%s is not an attribution table" path
      in
      if not (String.equal got magic) then
        fail "%s is not an attribution table" path;
      let word () =
        let b = Bytes.create 8 in
        (try really_input ic b 0 8
         with End_of_file -> fail "%s is truncated" path);
        let w64 = Bytes.get_int64_le b 0 in
        let w = Int64.to_int w64 in
        if not (Int64.equal (Int64.of_int w) w64) then
          fail "%s: word does not fit a native int" path;
        w
      in
      let count what n =
        if n < 0 || n > 1 lsl 40 then fail "%s: corrupt %s count %d" path what n;
        n
      in
      let t = create () in
      let n_epochs = count "epoch" (word ()) in
      for _ = 1 to n_epochs do
        let pos = word () in
        let stack_lo = word () in
        let dynamic_lo = word () in
        let to_lo = word () in
        let to_hi = word () in
        let from_lo = word () in
        let from_hi = word () in
        match
          publish_map t ~pos ~stack_lo ~dynamic_lo ~to_lo ~to_hi ~from_lo
            ~from_hi
        with
        | () -> ()
        | exception Invalid_argument msg -> fail "%s: %s" path msg
      done;
      let n_runs = count "run" (word ()) in
      let runs = Array.init n_runs (fun _ -> let p = word () in (p, word ())) in
      let n_sites = count "site" (word ()) in
      for i = 0 to n_sites - 1 do
        let len = word () in
        if len < 0 || len > 1 lsl 20 then
          fail "%s: corrupt site-name length %d" path len;
        let name =
          try really_input_string ic len
          with End_of_file -> fail "%s is truncated" path
        in
        if i = 0 then begin
          if not (String.equal name "(runtime)") then
            fail "%s: site 0 is %S, expected (runtime)" path name
        end
        else begin
          let id = intern_site t name in
          if id <> i then fail "%s: duplicate site name %S" path name
        end
      done;
      Array.iter
        (fun (pos, site) ->
          match note_site t ~pos site with
          | () -> ()
          | exception Invalid_argument msg -> fail "%s: %s" path msg)
        runs;
      let clipped = word () in
      if clipped <> 0 && clipped <> 1 then fail "%s: corrupt flag" path;
      t.sites_clipped <- clipped = 1;
      t)

(* --- Profiles ------------------------------------------------------------ *)

type profile = {
  refs : int array;
  misses : int array;
  alloc_misses : int array;
  fetches : int array;
  writebacks : int array;
  writes : int array;
  site_alloc_misses : int array;
  site_alloc_writes : int array;
  heat : int array;
  heat_rows : int;
  heat_cols : int;
  heat_row_shift : int;
  heat_col_shift : int;
  region_time : int array;
  mutable chunks_seen : int;
  mutable chunks_attributed : int;
  mutable events_attributed : int;
  sample_every : int;
}

(* Smallest shift such that [(limit - 1) lsr shift < buckets]: indexes
   computed in the hot loop stay in range without a clamp for any
   input below [limit]. *)
let shift_for ~limit ~buckets =
  let s = ref 0 in
  while (max 0 (limit - 1)) lsr !s >= buckets do
    incr s
  done;
  !s

let profile_create ?(heat_rows = 32) ?(heat_cols = 64) ?(sample_every = 1)
    ~num_sites ~addr_limit ~events () =
  if heat_rows < 1 || heat_cols < 1 then
    invalid_arg "Attr.profile_create: heat grid must be at least 1x1";
  if sample_every < 1 then
    invalid_arg "Attr.profile_create: sample_every must be >= 1";
  if num_sites < 1 then invalid_arg "Attr.profile_create: no sites";
  { refs = Array.make num_slots 0;
    misses = Array.make num_slots 0;
    alloc_misses = Array.make num_slots 0;
    fetches = Array.make num_slots 0;
    writebacks = Array.make num_slots 0;
    writes = Array.make num_slots 0;
    site_alloc_misses = Array.make num_sites 0;
    site_alloc_writes = Array.make num_sites 0;
    heat = Array.make (heat_rows * heat_cols) 0;
    heat_rows;
    heat_cols;
    heat_row_shift = shift_for ~limit:(max 1 addr_limit) ~buckets:heat_rows;
    heat_col_shift = shift_for ~limit:(max 1 events) ~buckets:heat_cols;
    region_time = Array.make (heat_cols * num_regions) 0;
    chunks_seen = 0;
    chunks_attributed = 0;
    events_attributed = 0;
    sample_every;
  }

(* --- Replay cursor ------------------------------------------------------- *)

type cursor = {
  ctab : table;
  mutable ei : int;
  mutable si : int;
  mutable cur_site : int;
  mutable stack_lo : int;
  mutable dyn_lo : int;
  mutable to_lo : int;
  mutable to_hi : int;
  mutable from_lo : int;
  mutable from_hi : int;
}

let cursor ctab =
  { ctab;
    ei = -1;
    si = 0;
    cur_site = runtime_site;
    stack_lo = 0;
    dyn_lo = 0;
    to_lo = 0;
    to_hi = 0;
    from_lo = 0;
    from_hi = 0;
  }
