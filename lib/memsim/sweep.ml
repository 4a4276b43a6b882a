let kb n = n * 1024
let mb n = n * 1024 * 1024

let paper_cache_sizes =
  [ kb 32; kb 64; kb 128; kb 256; kb 512; mb 1; mb 2; mb 4 ]

let paper_block_sizes = [ 16; 32; 64; 128; 256 ]

let pp_size = Size.pp

(* A grid cell is a one-level hierarchy, so grids and hierarchy
   fleets share one replay, checkpoint and resume path; [levels]
   caches each cell's level for the per-event and per-level entry
   points. *)
type t = { hiers : Hier.t array; levels : Level.t array }

let create configs =
  let hiers =
    Array.of_list
      (List.map (fun c -> Hier.create (Hier.config ~levels:[ c ] ())) configs)
  in
  { hiers; levels = Array.map (fun h -> Hier.level h 0) hiers }

let grid ?(write_miss_policy = Cache.Write_validate) ~cache_sizes ~block_sizes
    () =
  List.concat_map
    (fun size_bytes ->
      List.map
        (fun block_bytes ->
          Level.config ~write_miss_policy ~size_bytes ~block_bytes ~ways:1 ())
        block_sizes)
    cache_sizes

let sink t =
  let levels = t.levels in
  let n = Array.length levels in
  { Trace.access =
      (fun addr kind phase ->
        for i = 0 to n - 1 do
          Level.access (Array.unsafe_get levels i) addr kind phase
        done)
  }

let hiers t = t.hiers

(* Error context: callers that run sweeps on behalf of something else
   (the serve scheduler runs them for submitted jobs) prefix failures
   with who the work was for, so a surfaced error names the job and
   manifest, not just the geometry. *)
let with_ctx ctx msg =
  match ctx with None -> msg | Some c -> c ^ ": " ^ msg

let results t =
  Array.to_list (Array.map (fun l -> (Level.geometry l, Level.stats l)) t.levels)

(* --- The claim-by-index pool -------------------------------------------- *)

(* Every replay below, and every caller that claims whole runs
   (E-H1's cells, [repro record]'s workloads), parallelizes the same
   way: indices are claimed off one atomic cursor by [jobs] domains
   (the caller's included), and [f i] touches only what claim i owns:
   index i's profile or slot, or the prefix tree of hierarchies that
   hierarchy i leads.  Nothing mutable is shared between two claims,
   so the result is bit-identical to the serial loop. *)
let parallel_for ~jobs n f =
  let jobs = max 1 (min jobs n) in
  if jobs = 1 then
    for i = 0 to n - 1 do
      f i
    done
  else begin
    let next = Atomic.make 0 in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        f i;
        worker ()
      end
    in
    let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    (* Join every worker before re-raising: a caller that releases the
       recording on the way out must not race a domain still reading
       its slabs. *)
    let first = ref (match worker () with () -> None | exception e -> Some e) in
    Array.iter
      (fun d ->
        match Domain.join d with
        | () -> ()
        | exception e -> if Option.is_none !first then first := Some e)
      domains;
    Option.iter raise !first
  end

(* --- The replay driver ------------------------------------------------ *)

(* Feed the event range [from_, until) of a recording to [step ~base
   buf off len], where [base] is the recording-global index of
   [buf.(off)].  Slabs are fixed-size, so the range maps to per-chunk
   offsets. *)
let replay_range recording ~from_ ~until step =
  let start = ref 0 in
  Recording.iter_chunks recording (fun buf len ->
      let b = !start in
      start := b + len;
      let lo = max from_ b in
      let hi = min until (b + len) in
      if lo < hi then step ~base:lo buf (lo - b) (hi - lo))

(* --- Prefix sharing --------------------------------------------------- *)

(* A node of a prefix tree: level [depth] of hierarchy [lead] and of
   each of its [followers] (indices into the replayed array).  When a
   range starts these levels are [Level.same] and their parents share
   a node, so over the range they would all receive one stream and end
   [same] again: only the leader's level is simulated, and the
   followers' levels copy its state when the range ends.  [below]
   partitions the members that have a level under [depth]. *)
type node = { depth : int; lead : int; followers : int list; below : node list }

let depth_of h = Array.length (Hier.geometry h).Hier.levels

(* A stable partition of [ks] by [Level.same] on level [depth] (an
   equivalence, so the leader stands for its group), recursing into
   the members that go deeper. *)
let rec nodes hiers depth ks =
  let level k = Hier.level hiers.(k) depth in
  let groups =
    List.fold_left
      (fun groups k ->
        let rec place = function
          | [] -> [ (k, []) ]
          | (lead, rev) :: rest ->
            if Level.same (level lead) (level k) then (lead, k :: rev) :: rest
            else (lead, rev) :: place rest
        in
        place groups)
      [] ks
  in
  List.map
    (fun (lead, rev) ->
      let followers = List.rev rev in
      { depth;
        lead;
        followers;
        below =
          nodes hiers (depth + 1)
            (List.filter
               (fun k -> depth_of hiers.(k) > depth + 1)
               (lead :: followers))
      })
    groups

(* Replay one prefix tree over [from_, until).  A node runs its
   leader's level once per chunk, emitting into its depth's stream
   buffer when levels hang below it; each child drains that stream in
   turn, so siblings reuse the next depth's buffer.  The buffers
   belong to the claim. *)
let replay_tree hiers recording ~from_ ~until root =
  let level node k = Hier.level hiers.(k) node.depth in
  let streams =
    Array.make
      (List.fold_left
         (fun d k -> max d (depth_of hiers.(k)))
         0 (root.lead :: root.followers))
      Chunk.empty
  in
  let rec run node buf off len =
    let l = level node node.lead in
    match node.below with
    | [] -> Level.access_chunk l buf off len
    | below ->
      let d = node.depth in
      if Bigarray.Array1.dim streams.(d) < 2 * len then
        streams.(d) <- Chunk.create_buf_uninit (2 * len);
      let out = streams.(d) in
      let m = Level.access_chunk_emit l buf off len ~out ~pos:0 in
      List.iter (fun child -> run child out 0 m) below
  in
  replay_range recording ~from_ ~until (fun ~base:_ buf off len ->
      run root buf off len);
  let rec settle node =
    let src = level node node.lead in
    List.iter (fun k -> Level.copy ~src (level node k)) node.followers;
    List.iter settle node.below
  in
  settle root

(* What one claim of the pool does. *)
type claim =
  | Idle                 (* a follower's, or a pair partner's *)
  | Alone                (* an unshared root: its own [Hier.access_chunk] *)
  | Pair of int          (* this unshared direct-mapped cell and that one *)
  | Tree of node         (* a shared prefix tree *)

(* A one-level hierarchy over a 1-way level: what a grid cell is.  A
   one-level hierarchy is never hooked. *)
let pairable hiers i =
  depth_of hiers.(i) = 1 && Level.num_ways (Hier.level hiers.(i) 0) = 1

(* The claims, by index.  Unshared pairable roots pair up in index
   order; an odd one out stays [Alone]. *)
let claims hiers roots =
  let rec go acc pending = function
    | [] -> (
      match pending with
      | None -> acc
      | Some i -> (i, Alone) :: acc)
    | ({ followers = _ :: _; _ } as root) :: rest ->
      go ((root.lead, Tree root) :: acc) pending rest
    | { lead; followers = []; _ } :: rest -> (
      match pending with
      | _ when not (pairable hiers lead) -> go ((lead, Alone) :: acc) pending rest
      | None -> go acc (Some lead) rest
      | Some i -> go ((i, Pair lead) :: acc) None rest)
  in
  go [] None roots

(* The pool claims hierarchies by index.  The claim of a tree's root
   leader replays the whole tree, and a root follower's claim has
   nothing to do.  Two unshared grid cells are one claim: the first
   index replays both through [Level.access_chunk2], reading each
   event once, and its partner's claim has nothing to do.  Any other
   root without followers shares nothing and replays through its own
   [Hier.access_chunk]: every one-hierarchy replay, and every hooked
   hierarchy (hooked levels are never [same]), takes the unshared
   path that is the shared one's oracle.  Claims touch disjoint
   hierarchies over a read-only sealed recording, so every path below
   is bit-identical to a serial replay of each hierarchy alone. *)
let replay ~jobs hiers recording ~from_ ~until =
  let claims =
    claims hiers (nodes hiers 0 (List.init (Array.length hiers) Fun.id))
  in
  parallel_for ~jobs (Array.length hiers) (fun i ->
      match Option.value ~default:Idle (List.assoc_opt i claims) with
      | Idle -> ()
      | Alone ->
        replay_range recording ~from_ ~until (fun ~base:_ buf off len ->
            Hier.access_chunk hiers.(i) buf off len)
      | Pair j ->
        let a = Hier.level hiers.(i) 0 and b = Hier.level hiers.(j) 0 in
        replay_range recording ~from_ ~until (fun ~base:_ buf off len ->
            Level.access_chunk2 a b buf off len)
      | Tree root -> replay_tree hiers recording ~from_ ~until root)

let hier_run_parallel ~jobs hiers recording =
  replay ~jobs hiers recording ~from_:0 ~until:(Recording.length recording)

let hier_run_serial hiers recording = hier_run_parallel ~jobs:1 hiers recording

(* --- Attributed replay --------------------------------------------------- *)

(* Cells pair up as in [replay]: the claim of an even index replays
   that cell and the next through one cursor, and an odd index's claim
   has nothing to do; a last odd cell replays alone.  Each claim gets
   a private cursor, so the only state shared between domains is
   read-only (the recording's sealed slabs and the completed side
   table) or partitioned by level index (the profile array). *)
let run_attributed ?(jobs = 1) ?(sample_every = 1) ~addr_limit t table
    recording =
  if sample_every < 1 then
    invalid_arg "Sweep.run_attributed: sample_every must be >= 1";
  let events = Recording.length recording in
  let num_sites = Attr.num_sites table in
  let profiles =
    Array.map
      (fun _ ->
        Attr.profile_create ~sample_every ~num_sites ~addr_limit ~events ())
      t.levels
  in
  let n = Array.length t.levels in
  parallel_for ~jobs n (fun i ->
      if i land 1 = 0 then begin
        let a = t.levels.(i) and pa = profiles.(i) in
        let partner =
          if i + 1 < n then Some (t.levels.(i + 1), profiles.(i + 1)) else None
        in
        let note attributed (prof : Attr.profile) =
          prof.Attr.chunks_seen <- prof.Attr.chunks_seen + 1;
          if attributed then
            prof.Attr.chunks_attributed <- prof.Attr.chunks_attributed + 1
        in
        let cur = Attr.cursor table in
        let chunk_no = ref 0 in
        replay_range recording ~from_:0 ~until:events (fun ~base buf off len ->
            let attributed = !chunk_no mod sample_every = 0 in
            incr chunk_no;
            note attributed pa;
            Option.iter (fun (_, pb) -> note attributed pb) partner;
            match (partner, attributed) with
            | None, true -> Level.access_chunk_attr a cur pa ~base buf off len
            | None, false -> Level.access_chunk a buf off len
            | Some (b, pb), true ->
              Level.access_chunk_attr2 a b cur pa pb ~base buf off len
            | Some (b, _), false -> Level.access_chunk2 a b buf off len)
      end);
  profiles

(* --- Checkpoint / resume ------------------------------------------------ *)

(* A checkpoint pins an in-flight replay: the number of events every
   hierarchy has consumed (the cursor) plus a full snapshot of each.
   Replay is deterministic and leaves every hierarchy in the state it
   would reach alone, so restoring the snapshots and continuing from
   the cursor is bit-identical to never having stopped.  Layout: the
   8-byte magic, cursor, event count and hierarchy count as
   little-endian 64-bit words, then the snapshots back to back.  The
   file is replaced atomically ([Obs.Atomic_file]) so a crash
   mid-checkpoint can never leave a torn file where a resume would
   find it. *)

let checkpoint_magic = "SWHCKPT1"
let header_bytes = 32

let save_hier_checkpoint hiers ~events ~cursor path =
  Obs.Atomic_file.write path (fun oc ->
      let hdr = Bytes.create 24 in
      Bytes.set_int64_le hdr 0 (Int64.of_int cursor);
      Bytes.set_int64_le hdr 8 (Int64.of_int events);
      Bytes.set_int64_le hdr 16 (Int64.of_int (Array.length hiers));
      output_string oc checkpoint_magic;
      output_bytes oc hdr;
      let buf = Buffer.create (1 lsl 16) in
      Array.iter
        (fun h ->
          Buffer.clear buf;
          Hier.snapshot h buf;
          Buffer.output_buffer oc buf)
        hiers)

(* The whole file is read and restored in place, so the byte offsets
   [Level.restore] names in its errors are offsets into the file. *)
let load_hier_checkpoint ?ctx hiers ~events path =
  let src =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let n = in_channel_length ic in
        let b = Bytes.create n in
        really_input ic b 0 n;
        b)
  in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        failwith (with_ctx ctx ("Sweep.load_hier_checkpoint: " ^ msg)))
      fmt
  in
  let len = Bytes.length src in
  if len < 8 || Bytes.sub_string src 0 8 <> checkpoint_magic then
    fail "%s is not a hierarchy checkpoint" path;
  if len < header_bytes then fail "%s has a truncated header" path;
  (* A header word with bit 63 set would wrap onto a plausible int. *)
  let word at =
    let w = Bytes.get_int64_le src at in
    let n = Int64.to_int w in
    if not (Int64.equal (Int64.of_int n) w) then
      fail "%s: byte %d: word 0x%Lx does not fit a native int" path at w;
    n
  in
  let cursor = word 8 in
  let ck_events = word 16 in
  let count = word 24 in
  if ck_events <> events then
    fail "%s was taken over %d events but the recording has %d" path
      ck_events events;
  if cursor < 0 || cursor > events then
    fail "%s has a corrupt cursor %d (recording has %d events)" path cursor
      events;
  if count <> Array.length hiers then
    fail "%s holds %d hierarchies but the sweep has %d" path count
      (Array.length hiers);
  let pos = ref header_bytes in
  (try Array.iter (fun h -> pos := Hier.restore h src !pos) hiers
   with Invalid_argument msg -> fail "%s: %s" path msg);
  if !pos <> len then fail "%s has %d trailing bytes" path (len - !pos);
  cursor

let default_checkpoint_events = 1 lsl 22

(* Epochs with a barrier at each checkpoint: within an epoch the
   prefix trees progress independently (possibly on worker domains),
   but a checkpoint is only taken when every hierarchy has consumed
   exactly [cursor] events and every follower holds its leader's
   state, so one cursor describes them all.  Each epoch regroups the
   trees, restored or not. *)
let hier_run_resumable ?ctx ?(jobs = 1)
    ?(checkpoint_every = default_checkpoint_events) ?progress ~checkpoint
    hiers recording =
  let events = Recording.length recording in
  let every = max 1 checkpoint_every in
  let cursor = ref 0 in
  if Sys.file_exists checkpoint then
    cursor := load_hier_checkpoint ?ctx hiers ~events checkpoint;
  (match progress with Some f -> f !cursor | None -> ());
  while !cursor < events do
    let epoch_end = min events (!cursor + every) in
    replay ~jobs hiers recording ~from_:!cursor ~until:epoch_end;
    cursor := epoch_end;
    save_hier_checkpoint hiers ~events ~cursor:!cursor checkpoint;
    match progress with Some f -> f !cursor | None -> ()
  done
