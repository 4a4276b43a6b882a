(* Multi-level cache hierarchy over policy-pluggable {!Level}s.

   Two engines over the same levels:

   - The *hooked* oracle chains levels with per-event fill hooks — L1
     fetches become L2 reads, dirty L1 evictions become L2 block
     write-backs, and so on down.  Hooks force every level onto the
     per-event path, so the whole stack runs at hook-dispatch speed.

   - The *fused* engine simulates L1 over a packed chunk with the
     hoisted fast loop while appending L1's misses and write-backs
     into a reusable miss-stream buffer (Chunk codec, spare kind code
     3 marking a write-back), then drains that buffer through L2, and
     L2's stream through L3.  Lower levels do O(misses) work instead
     of O(events) hook dispatch.

   The two are bit-identical in per-level stats and state: a level's
   emitted stream lists exactly the refill events its hooks would
   have fired, in the same per-event order, and refill traffic only
   flows downward — level i+1's behaviour is a function of the
   ordered stream it receives, never of how level i interleaved its
   own hits between those misses.  The differential suite
   (test/test_hier.ml) checks this on every workload. *)

type config = {
  levels : Level.config array;
  hit_ns : float array;
}

(* Default hit latencies for L2, L3, ... — 12 and 40 cycles of the
   2 ns fast processor.  Only the overhead metric reads these. *)
let default_hit_ns = [| 24.0; 80.0; 160.0; 320.0 |]

let config ?hit_ns ~levels () =
  let levels = Array.of_list levels in
  let n = Array.length levels in
  let hit_ns =
    match hit_ns with
    | Some a -> Array.of_list a
    | None -> Array.sub default_hit_ns 0 (max 0 (min (n - 1) 4))
  in
  { levels; hit_ns }

type t = {
  cfg : config;
  levels : Level.t array;
  fused : bool;
  (* Reusable per-boundary miss-stream buffers, grown on demand;
     stream i carries level i's misses into level i+1. *)
  mutable streams : Chunk.buf array;
}

let create ?(fused = true) (cfg : config) =
  let n = Array.length cfg.levels in
  if n < 1 then invalid_arg "Hier.create: no levels";
  if Array.length cfg.hit_ns <> n - 1 then
    invalid_arg "Hier.create: need one hit latency per level below L1";
  for i = 1 to n - 1 do
    if cfg.levels.(i).Level.block_bytes < cfg.levels.(i - 1).Level.block_bytes
    then invalid_arg "Hier.create: blocks must not shrink down the hierarchy"
  done;
  let levels = Array.map Level.create cfg.levels in
  if not fused then
    (* Chain refill traffic per event: the hooked differential oracle. *)
    for i = 0 to n - 2 do
      let next = levels.(i + 1) in
      Level.set_fill_hook levels.(i)
        ~on_fetch:(fun addr phase -> Level.access next addr Trace.Read phase)
        ~on_writeback:(fun addr phase -> Level.write_back next addr phase)
    done;
  { cfg;
    levels;
    fused;
    streams = Array.init (max 0 (n - 1)) (fun _ -> Chunk.empty)
  }

let geometry t = t.cfg

let ensure_stream t i cap =
  if Bigarray.Array1.dim t.streams.(i) < cap then
    t.streams.(i) <- Chunk.create_buf_uninit cap

let access_chunk t buf off len =
  let n = Array.length t.levels in
  if (not t.fused) || n = 1 then
    (* hooked levels fall back to the per-event path internally *)
    Level.access_chunk t.levels.(0) buf off len
  else begin
    ensure_stream t 0 (2 * len);
    let m =
      ref (Level.access_chunk_emit t.levels.(0) buf off len
             ~out:t.streams.(0) ~pos:0)
    in
    for i = 1 to n - 2 do
      ensure_stream t i (2 * !m);
      m :=
        Level.access_chunk_emit t.levels.(i) t.streams.(i - 1) 0 !m
          ~out:t.streams.(i) ~pos:0
    done;
    Level.access_chunk t.levels.(n - 1) t.streams.(n - 2) 0 !m
  end

let access t addr kind phase =
  if t.fused then
    invalid_arg
      "Hier.access: the fused engine is chunk-only; use access_chunk or a \
       hooked hierarchy";
  Level.access t.levels.(0) addr kind phase

let sink t = { Trace.access = (fun addr kind phase -> access t addr kind phase) }

let level t i = t.levels.(i)
let stats t = Array.map Level.stats t.levels
let level_stats t i = Level.stats t.levels.(i)

(* Each level's fetches are charged disjointly: a fetch that hits
   level i+1 costs that level's hit latency, and only the fetches that
   miss every level pay the Przybylski main-memory penalty of the last
   level's block. *)
let stall_cycles cfg (stats : Cache.stats array) cpu ~collector =
  let fetches (s : Cache.stats) =
    if collector then s.Cache.collector_fetches else s.Cache.fetches
  in
  let n = Array.length stats in
  let cyc = Timing.cycle_ns cpu in
  let total = ref 0.0 in
  for i = 0 to n - 2 do
    let hits = fetches stats.(i) - fetches stats.(i + 1) in
    total := !total +. (float_of_int hits *. cfg.hit_ns.(i) /. cyc)
  done;
  let block = cfg.levels.(n - 1).Level.block_bytes in
  !total
  +. (float_of_int (fetches stats.(n - 1))
      *. Timing.miss_penalty cpu ~block_bytes:block)

let overhead t cpu ~instructions =
  if instructions <= 0 then invalid_arg "Hier.overhead";
  stall_cycles t.cfg (stats t) cpu ~collector:false
  /. float_of_int instructions

(* --- Per-CPU presets ----------------------------------------------------- *)

(* Geometries and replacement policies follow the CacheTrace tables
   for Intel client parts (SNIPPETS.md): Tree-PLRU L1/L2 everywhere,
   an MRU (bit-PLRU) L3 on Nehalem, QLRU_H11_M1_R1_U2 L3s from Ivy
   Bridge through Skylake, and QLRU_H11_M1_R0_U0 on Coffee Lake.
   64-byte blocks throughout. *)

type cpu = Nhm | Ivb | Hsw | Skl | Cfl

let all_cpus = [ Nhm; Ivb; Hsw; Skl; Cfl ]

let cpu_label = function
  | Nhm -> "nhm"
  | Ivb -> "ivb"
  | Hsw -> "hsw"
  | Skl -> "skl"
  | Cfl -> "cfl"

let cpu_title = function
  | Nhm -> "Nehalem"
  | Ivb -> "Ivy Bridge"
  | Hsw -> "Haswell"
  | Skl -> "Skylake"
  | Cfl -> "Coffee Lake"

let cpu_of_label s =
  let rec find = function
    | [] -> None
    | c :: rest -> if String.equal (cpu_label c) s then Some c else find rest
  in
  find all_cpus

let preset ?(write_miss_policy = Cache.Write_validate) cpu =
  let kb n = n * 1024 in
  let mb n = n * 1024 * 1024 in
  let lvl ~size ~ways ~policy =
    Level.config ~policy ~write_miss_policy ~size_bytes:size ~block_bytes:64
      ~ways ()
  in
  let l1 = lvl ~size:(kb 32) ~ways:8 ~policy:Level.Tree_plru in
  let l2_ways = match cpu with Nhm | Ivb | Hsw -> 8 | Skl | Cfl -> 4 in
  let l2 = lvl ~size:(kb 256) ~ways:l2_ways ~policy:Level.Tree_plru in
  let l3 =
    match cpu with
    | Nhm -> lvl ~size:(mb 8) ~ways:16 ~policy:Level.Mru
    | Ivb | Hsw | Skl ->
      lvl ~size:(mb 8) ~ways:16 ~policy:Level.Qlru_h11_m1_r1_u2
    | Cfl -> lvl ~size:(mb 12) ~ways:12 ~policy:Level.Qlru_h11_m1_r0_u0
  in
  { levels = [| l1; l2; l3 |]; hit_ns = [| 24.0; 80.0 |] }

(* --- Checkpointing ------------------------------------------------------- *)

let snapshot_magic = 0x52454948534E4150L (* "HIERSNAP" *)

let snapshot t buf =
  Buffer.add_int64_le buf snapshot_magic;
  Buffer.add_int64_le buf (Int64.of_int (Array.length t.levels));
  Array.iter (fun l -> Level.snapshot l buf) t.levels

let restore t src pos =
  let bad at fmt =
    Printf.ksprintf
      (fun msg -> invalid_arg (Printf.sprintf "Hier.restore: byte %d: %s" at msg))
      fmt
  in
  if pos < 0 || Bytes.length src - pos < 16 then bad pos "truncated snapshot";
  if not (Int64.equal (Bytes.get_int64_le src pos) snapshot_magic) then
    bad pos "not a hierarchy snapshot";
  (* Compared as 64-bit words: a count with bit 63 set must not wrap
     onto the right one. *)
  let n = Bytes.get_int64_le src (pos + 8) in
  if not (Int64.equal n (Int64.of_int (Array.length t.levels))) then
    bad (pos + 8) "snapshot has %Ld levels but the hierarchy has %d" n
      (Array.length t.levels);
  let p = ref (pos + 16) in
  Array.iter (fun l -> p := Level.restore l src !p) t.levels;
  !p
