let kb n = n * 1024
let mb n = n * 1024 * 1024

let paper_cache_sizes =
  [ kb 32; kb 64; kb 128; kb 256; kb 512; mb 1; mb 2; mb 4 ]

let paper_block_sizes = [ 16; 32; 64; 128; 256 ]

let pp_size = Size.pp

type t = { caches : Cache.t array }

let create configs = { caches = Array.of_list (List.map Cache.create configs) }

let grid ?(write_miss_policy = Cache.Write_validate) ~cache_sizes ~block_sizes
    () =
  List.concat_map
    (fun size_bytes ->
      List.map
        (fun block_bytes ->
          Cache.config ~write_miss_policy ~size_bytes ~block_bytes ())
        block_sizes)
    cache_sizes

let sink t =
  let caches = t.caches in
  let n = Array.length caches in
  { Trace.access =
      (fun addr kind phase ->
        for i = 0 to n - 1 do
          Cache.access (Array.unsafe_get caches i) addr kind phase
        done)
  }

let caches t = t.caches

(* Error context: callers that run sweeps on behalf of something else
   (the serve scheduler runs them for submitted jobs) prefix failures
   with who the work was for, so a surfaced error names the job and
   manifest, not just the geometry. *)
let with_ctx ctx msg =
  match ctx with None -> msg | Some c -> c ^ ": " ^ msg

let find ?ctx t ~size_bytes ~block_bytes =
  let matches c =
    let g = Cache.geometry c in
    g.Cache.size_bytes = size_bytes && g.Cache.block_bytes = block_bytes
  in
  let rec loop i =
    if i >= Array.length t.caches then
      (* Sweeps are policy-pluggable: name the configured write-miss
         policies so a grid built under the wrong policy is
         recognizable from the error alone. *)
      let policies =
        Array.fold_left
          (fun acc c ->
            let l =
              Cache.write_miss_label (Cache.geometry c).Cache.write_miss_policy
            in
            if List.exists (String.equal l) acc then acc else l :: acc)
          [] t.caches
        |> List.rev |> String.concat "/"
      in
      failwith
        (with_ctx ctx
           (Format.asprintf
              "Sweep.find: no %a cache with %db blocks among the %d \
               configured (%s)"
              pp_size size_bytes block_bytes
              (Array.length t.caches)
              (if String.length policies = 0 then "no policies" else policies)))
    else if matches t.caches.(i) then t.caches.(i)
    else loop (i + 1)
  in
  loop 0

let results t =
  Array.to_list (Array.map (fun c -> (Cache.geometry c, Cache.stats c)) t.caches)

(* --- The claim-by-index pool -------------------------------------------- *)

(* Every replay below, and the sharded producer in [Runner.record_grid],
   parallelizes the same way: indices are claimed off one atomic
   cursor by [jobs] domains (the caller's included), and [f i] touches
   only index i's simulator, profile or slot.  Nothing mutable is
   shared between two claims, so the result is bit-identical to the
   serial loop. *)
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
    worker ();
    Array.iter Domain.join domains
  end

(* --- One replay driver over two engines --------------------------------- *)

(* What the driver needs of a simulator: a chunk step and a
   snapshot/restore pair, plus how its checkpoint files are framed and
   named in errors.  Cache grids and hierarchy fleets are the two
   instances; both are independent simulators over a read-only sealed
   recording, which is what makes every path below bit-identical to a
   serial replay. *)
type 'e engine = {
  step : 'e -> Chunk.buf -> int -> int -> unit;
  snapshot : 'e -> Buffer.t -> unit;
  restore : 'e -> Bytes.t -> int -> int;
  magic : string;  (* 8-byte checkpoint file magic *)
  loader : string;  (* error prefix of the checkpoint loader *)
  kind : string;  (* what the checkpoint is called in errors *)
  noun : string;  (* what the simulators are called in errors *)
}

let cache_engine =
  { step = Cache.access_chunk;
    snapshot = Cache.snapshot;
    restore = Cache.restore;
    magic = "SWPCKPT1";
    loader = "Sweep.load_checkpoint";
    kind = "sweep";
    noun = "caches"
  }

let hier_engine =
  { step = Hier.access_chunk;
    snapshot = Hier.snapshot;
    restore = Hier.restore;
    magic = "SWHCKPT1";
    loader = "Sweep.load_hier_checkpoint";
    kind = "hierarchy";
    noun = "hierarchies"
  }

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

let replay engine ~jobs items recording ~from_ ~until =
  parallel_for ~jobs (Array.length items) (fun i ->
      let e = items.(i) in
      replay_range recording ~from_ ~until (fun ~base:_ buf off len ->
          engine.step e buf off len))

let replay_all engine ~jobs items recording =
  replay engine ~jobs items recording ~from_:0
    ~until:(Recording.length recording)

let run_serial t recording = replay_all cache_engine ~jobs:1 t.caches recording

let run_parallel ~jobs t recording =
  replay_all cache_engine ~jobs t.caches recording

let hier_run_serial hiers recording =
  replay_all hier_engine ~jobs:1 hiers recording

let hier_run_parallel ~jobs hiers recording =
  replay_all hier_engine ~jobs hiers recording

(* --- Attributed replay --------------------------------------------------- *)

(* Each claimed cache gets a private cursor and profile, so the only
   state shared between domains is read-only (the recording's sealed
   slabs and the completed side table) or partitioned by cache index
   (the profile array). *)
let run_attributed ?(jobs = 1) ?(sample_every = 1) ?heat_rows ?heat_cols
    ~addr_limit t table recording =
  if sample_every < 1 then
    invalid_arg "Sweep.run_attributed: sample_every must be >= 1";
  let events = Recording.length recording in
  let num_sites = Attr.num_sites table in
  let profiles =
    Array.map
      (fun _ ->
        Attr.profile_create ?heat_rows ?heat_cols ~sample_every ~num_sites
          ~addr_limit ~events ())
      t.caches
  in
  parallel_for ~jobs (Array.length t.caches) (fun i ->
      let c = t.caches.(i) in
      let prof = profiles.(i) in
      let cur = Attr.cursor table in
      let chunk_no = ref 0 in
      replay_range recording ~from_:0 ~until:events (fun ~base buf off len ->
          let cn = !chunk_no in
          chunk_no := cn + 1;
          prof.Attr.chunks_seen <- prof.Attr.chunks_seen + 1;
          if cn mod sample_every = 0 then begin
            prof.Attr.chunks_attributed <- prof.Attr.chunks_attributed + 1;
            Cache.access_chunk_attr c cur prof ~base buf off len
          end
          else Cache.access_chunk c buf off len));
  profiles

(* --- Checkpoint / resume ------------------------------------------------ *)

(* A checkpoint pins an in-flight replay: the number of events every
   simulator has consumed (the cursor) plus a full snapshot of each.
   Replay is deterministic and the simulators are independent, so
   restoring the snapshots and continuing from the cursor is
   bit-identical to never having stopped.  Layout: the engine's 8-byte
   magic, cursor, event count and simulator count as little-endian
   64-bit words, then the snapshots back to back.  The file is written
   to a temp name and renamed so a crash mid-checkpoint can never leave
   a torn file where a resume would find it. *)

let save engine items ~events ~cursor path =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (match
     let hdr = Bytes.create 24 in
     Bytes.set_int64_le hdr 0 (Int64.of_int cursor);
     Bytes.set_int64_le hdr 8 (Int64.of_int events);
     Bytes.set_int64_le hdr 16 (Int64.of_int (Array.length items));
     output_string oc engine.magic;
     output_bytes oc hdr;
     let buf = Buffer.create (1 lsl 16) in
     Array.iter
       (fun e ->
         Buffer.clear buf;
         engine.snapshot e buf;
         Buffer.output_buffer oc buf)
       items;
     close_out oc
   with
   | () -> ()
   | exception e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let load ?ctx engine items ~events path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let fail fmt =
        Printf.ksprintf
          (fun msg -> failwith (with_ctx ctx (engine.loader ^ ": " ^ msg)))
          fmt
      in
      let magic =
        try really_input_string ic 8
        with End_of_file -> fail "%s is not a %s checkpoint" path engine.kind
      in
      if magic <> engine.magic then
        fail "%s is not a %s checkpoint" path engine.kind;
      let hdr = Bytes.create 24 in
      (try really_input ic hdr 0 24
       with End_of_file -> fail "%s has a truncated header" path);
      let cursor = Int64.to_int (Bytes.get_int64_le hdr 0) in
      let ck_events = Int64.to_int (Bytes.get_int64_le hdr 8) in
      let count = Int64.to_int (Bytes.get_int64_le hdr 16) in
      if ck_events <> events then
        fail "%s was taken over %d events but the recording has %d" path
          ck_events events;
      if cursor < 0 || cursor > events then
        fail "%s has a corrupt cursor %d (recording has %d events)" path
          cursor events;
      if count <> Array.length items then
        fail "%s holds %d %s but the sweep has %d" path count engine.noun
          (Array.length items);
      let body_bytes = in_channel_length ic - pos_in ic in
      let body = Bytes.create body_bytes in
      really_input ic body 0 body_bytes;
      let pos = ref 0 in
      (try Array.iter (fun e -> pos := engine.restore e body !pos) items
       with Invalid_argument msg -> fail "%s: %s" path msg);
      if !pos <> body_bytes then
        fail "%s has %d trailing bytes" path (body_bytes - !pos);
      cursor)

let save_checkpoint t = save cache_engine t.caches
let load_checkpoint ?ctx t = load ?ctx cache_engine t.caches
let save_hier_checkpoint hiers = save hier_engine hiers
let load_hier_checkpoint ?ctx hiers = load ?ctx hier_engine hiers

let default_checkpoint_events = 1 lsl 22

(* Epochs with a barrier at each checkpoint: within an epoch the
   simulators progress independently (possibly on worker domains), but
   a checkpoint is only taken when every one has consumed exactly
   [cursor] events, so one cursor describes them all. *)
let resume ?ctx ~jobs ~checkpoint_every ?progress ~checkpoint engine items
    recording =
  let events = Recording.length recording in
  let every = max 1 checkpoint_every in
  let cursor = ref 0 in
  if Sys.file_exists checkpoint then
    cursor := load ?ctx engine items ~events checkpoint;
  (match progress with Some f -> f !cursor | None -> ());
  while !cursor < events do
    let epoch_end = min events (!cursor + every) in
    replay engine ~jobs items recording ~from_:!cursor ~until:epoch_end;
    cursor := epoch_end;
    save engine items ~events ~cursor:!cursor checkpoint;
    match progress with Some f -> f !cursor | None -> ()
  done

let run_resumable ?ctx ?(jobs = 1)
    ?(checkpoint_every = default_checkpoint_events) ?progress ~checkpoint t
    recording =
  resume ?ctx ~jobs ~checkpoint_every ?progress ~checkpoint cache_engine
    t.caches recording

let hier_run_resumable ?ctx ?(jobs = 1)
    ?(checkpoint_every = default_checkpoint_events) ?progress ~checkpoint
    hiers recording =
  resume ?ctx ~jobs ~checkpoint_every ?progress ~checkpoint hier_engine hiers
    recording

(* --- Record-while-sweep ------------------------------------------------- *)

(* Chunks arrive while the mutator still runs, so workers cannot claim
   whole caches off a finished recording.  Instead worker [j] owns
   caches j, j+jobs, j+2*jobs, ...: a static strided partition, and
   every chunk is broadcast by reference to all workers, so every
   cache sees the full stream in order. *)
let pipelined ~jobs ?(capacity = 8) t =
  let caches = t.caches in
  let n = Array.length caches in
  let jobs = max 1 (min jobs n) in
  if jobs = 1 then
    ((fun buf len -> Array.iter (fun c -> Cache.access_chunk c buf 0 len) caches),
     ignore)
  else begin
    let fanout = Chunk.Fanout.create ~consumers:jobs ~capacity in
    let worker j () =
      let rec drain () =
        match Chunk.Fanout.pop fanout j with
        | None -> ()
        | Some (buf, len) ->
          let i = ref j in
          while !i < n do
            Cache.access_chunk caches.(!i) buf 0 len;
            i := !i + jobs
          done;
          drain ()
      in
      drain ()
    in
    let domains = Array.init jobs (fun j -> Domain.spawn (worker j)) in
    let deliver buf len = Chunk.Fanout.push_shared fanout buf len in
    let finish () =
      Chunk.Fanout.close fanout;
      Array.iter Domain.join domains
    in
    (deliver, finish)
  end
