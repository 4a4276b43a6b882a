let cache_label (cfg : Memsim.Level.config) =
  Format.asprintf "%a/%a %s" Memsim.Sweep.pp_size cfg.Memsim.Level.size_bytes
    Memsim.Sweep.pp_size cfg.Memsim.Level.block_bytes
    (Memsim.Cache.write_miss_label cfg.Memsim.Level.write_miss_policy)

let capture ?gc ?heap_bytes ?scale w =
  let table = Memsim.Attr.create () in
  let r, recording = Runner.record ?gc ?heap_bytes ?scale ~attr:table w in
  let mem = Vscheme.Machine.mem r.Runner.machine in
  let addr_limit = Vscheme.Mem.size_words mem * Memsim.Trace.word_bytes in
  (r, recording, table, addr_limit)

let cook ~workload ~cache ~events table (p : Memsim.Attr.profile) =
  let phase_name = [| "mutator"; "collector" |] in
  let cells =
    List.concat
      (List.init Memsim.Attr.num_regions (fun r ->
           List.init 2 (fun ph ->
               let slot = (r * 2) + ph in
               { Obs.Profile.region = Memsim.Attr.region_name r;
                 phase = phase_name.(ph);
                 refs = p.Memsim.Attr.refs.(slot);
                 misses = p.Memsim.Attr.misses.(slot);
                 alloc_misses = p.Memsim.Attr.alloc_misses.(slot);
                 fetches = p.Memsim.Attr.fetches.(slot);
                 writebacks = p.Memsim.Attr.writebacks.(slot);
                 writes = p.Memsim.Attr.writes.(slot)
               })))
  in
  let sites = ref [] in
  for i = Memsim.Attr.num_sites table - 1 downto 0 do
    let aw = p.Memsim.Attr.site_alloc_writes.(i) in
    let am = p.Memsim.Attr.site_alloc_misses.(i) in
    if aw > 0 || am > 0 then
      sites :=
        { Obs.Profile.site = Memsim.Attr.site_name table i;
          alloc_writes = aw;
          alloc_misses = am
        }
        :: !sites
  done;
  let sites =
    List.sort
      (fun a b ->
        let c = compare b.Obs.Profile.alloc_misses a.Obs.Profile.alloc_misses in
        if c <> 0 then c else String.compare a.Obs.Profile.site b.Obs.Profile.site)
      !sites
  in
  { Obs.Profile.workload;
    cache;
    events;
    sample_every = p.Memsim.Attr.sample_every;
    chunks_seen = p.Memsim.Attr.chunks_seen;
    chunks_attributed = p.Memsim.Attr.chunks_attributed;
    events_attributed = p.Memsim.Attr.events_attributed;
    cells;
    sites;
    heat =
      { Obs.Profile.rows = p.Memsim.Attr.heat_rows;
        cols = p.Memsim.Attr.heat_cols;
        row_bytes = 1 lsl p.Memsim.Attr.heat_row_shift;
        col_events = 1 lsl p.Memsim.Attr.heat_col_shift;
        counts = Array.copy p.Memsim.Attr.heat
      };
    region_time = Array.copy p.Memsim.Attr.region_time
  }

let profile_recording ?jobs ?sample_every ~workload ~addr_limit ~caches table
    recording =
  let jobs = match jobs with Some j -> j | None -> Runner.jobs () in
  let sweep = Memsim.Sweep.create caches in
  let profiles =
    Memsim.Sweep.run_attributed ~jobs ?sample_every ~addr_limit sweep table
      recording
  in
  let events = Memsim.Recording.length recording in
  List.mapi
    (fun i cfg ->
      cook ~workload ~cache:(cache_label cfg) ~events table profiles.(i))
    caches
