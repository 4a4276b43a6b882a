type cache_result = {
  size_bytes : int;
  block_bytes : int;
  stats : Memsim.Cache.stats;
  miss_ratio : float;
  collector_miss_ratio : float;
  overhead_slow : float;
  overhead_fast : float;
}

type t = {
  run : Manifest.run;
  value : string;
  refs : int;
  collector_refs : int;
  instructions : int;
  collector_instructions : int;
  collections : int;
  bytes_allocated : int;
  trace_events : int;
  trace_bytes : int;
  caches : cache_result list;
}

(* --- Measuring ---------------------------------------------------------- *)

let measure ?ctx ?checkpoint ?checkpoint_every ?progress (run : Manifest.run) =
  let w =
    match Workloads.Workload.find run.Manifest.workload with
    | Some w -> w
    | None ->
      failwith
        (Printf.sprintf "%sgolden run %S: unknown workload %S"
           (match ctx with None -> "" | Some c -> c ^ ": ")
           run.Manifest.name run.Manifest.workload)
  in
  (* The lease ends however the measurement ends (a cache geometry
     [Level.create] refuses, or a serve job cancelled or killed by
     raising out of [progress]), so the kept trace is never left
     pinned.  The caches are built once the run is over, as the VM's
     machine is no longer live: building them first would hold both at
     once. *)
  let r, hiers, trace_events, trace_bytes =
    Core.Runner.with_lease ~gc:run.Manifest.gc
      ?heap_bytes:run.Manifest.heap_bytes ~scale:run.Manifest.scale w
      (fun r recording ->
        (* A hierarchy run replays one fused preset; a grid run replays
           the sweep's one-level cells.  Either way the per-level
           counters become the fixture's cache entries, in
           level-within-grid order, keyed by each level's capacity and
           block. *)
        let hiers =
          match run.Manifest.hier with
          | Some cpu ->
            [| Memsim.Hier.create
                 (Memsim.Hier.preset
                    ~write_miss_policy:run.Manifest.write_miss_policy cpu)
            |]
          | None ->
            Memsim.Sweep.hiers
              (Memsim.Sweep.create
                 (Memsim.Sweep.grid
                    ~write_miss_policy:run.Manifest.write_miss_policy
                    ~cache_sizes:run.Manifest.cache_sizes
                    ~block_sizes:run.Manifest.block_sizes ()))
        in
        (match checkpoint with
         | Some ck ->
           (* Statistics are bit-identical to the serial replay no
              matter how often the measurement died and resumed from
              [ck]. *)
           Memsim.Sweep.hier_run_resumable ?ctx ?checkpoint_every ?progress
             ~jobs:run.Manifest.jobs ~checkpoint:ck hiers recording
         | None ->
           Memsim.Sweep.hier_run_parallel ~jobs:run.Manifest.jobs hiers
             recording);
        ( r,
          hiers,
          Memsim.Recording.length recording,
          Memsim.Recording.saved_bytes ~format:run.Manifest.trace_format
            recording ))
  in
  let stats = r.Core.Runner.stats in
  let instructions = stats.Vscheme.Machine.mutator_insns in
  let result_of (size_bytes, block_bytes, (s : Memsim.Cache.stats)) =
    let ratio num den = float_of_int num /. float_of_int (max 1 den) in
    { size_bytes;
      block_bytes;
      stats = s;
      miss_ratio = ratio s.Memsim.Cache.misses s.Memsim.Cache.refs;
      collector_miss_ratio =
        ratio s.Memsim.Cache.collector_misses s.Memsim.Cache.collector_refs;
      overhead_slow =
        Memsim.Timing.cache_overhead Memsim.Timing.Slow ~block_bytes
          ~fetches:s.Memsim.Cache.fetches ~instructions;
      overhead_fast =
        Memsim.Timing.cache_overhead Memsim.Timing.Fast ~block_bytes
          ~fetches:s.Memsim.Cache.fetches ~instructions
    }
  in
  let caches =
    List.concat_map
      (fun h ->
        let levels = (Memsim.Hier.geometry h).Memsim.Hier.levels in
        List.mapi
          (fun i s ->
            result_of
              (levels.(i).Memsim.Level.size_bytes,
               levels.(i).Memsim.Level.block_bytes, s))
          (Array.to_list (Memsim.Hier.stats h)))
      (Array.to_list hiers)
  in
  { run;
    value = r.Core.Runner.value;
    refs = r.Core.Runner.refs;
    collector_refs = r.Core.Runner.collector_refs;
    instructions;
    collector_instructions = stats.Vscheme.Machine.collector_insns;
    collections = stats.Vscheme.Machine.collections;
    bytes_allocated = stats.Vscheme.Machine.bytes_allocated;
    trace_events;
    trace_bytes;
    caches
  }

(* --- Comparison --------------------------------------------------------- *)

let default_tolerance = 1e-9

let finding ~file rule fmt =
  Printf.ksprintf (fun msg -> Check.Finding.v ~rule ~file msg) fmt

let compare ?(tolerance = default_tolerance) ~file ~expected ~actual () =
  let acc = ref [] in
  let report f = acc := f :: !acc in
  let name = expected.run.Manifest.name in
  if actual.run <> expected.run then
    report
      (finding ~file "golden.run"
         "run %S: the fixture was measured under a different manifest entry \
          (workload/scale/gc/grid/policy/format changed); re-record the \
          fixture if the change is deliberate"
         name);
  let exact what e a =
    if e <> a then
      report
        (finding ~file "golden.count" "run %S: %s: expected %d, got %d (%+d)"
           name what e a (a - e))
  in
  let ratio what e a =
    let band = tolerance *. Float.max (Float.abs e) 1e-12 in
    if Float.abs (a -. e) > band then
      report
        (finding ~file "golden.ratio"
           "run %S: %s: expected %.9g, got %.9g (off by %.3g, tolerance %.3g)"
           name what e a (Float.abs (a -. e)) band)
  in
  if expected.value <> actual.value then
    report
      (finding ~file "golden.value"
         "run %S: result value: expected %S, got %S" name expected.value
         actual.value);
  exact "mutator refs" expected.refs actual.refs;
  exact "collector refs" expected.collector_refs actual.collector_refs;
  exact "mutator instructions" expected.instructions actual.instructions;
  exact "collector instructions" expected.collector_instructions
    actual.collector_instructions;
  exact "collections" expected.collections actual.collections;
  exact "bytes allocated" expected.bytes_allocated actual.bytes_allocated;
  exact "trace events" expected.trace_events actual.trace_events;
  exact
    (Printf.sprintf "trace bytes (%s)"
       (Memsim.Recording.format_label expected.run.Manifest.trace_format))
    expected.trace_bytes actual.trace_bytes;
  List.iter
    (fun (e : cache_result) ->
      let geometry =
        Printf.sprintf "%s cache, %db blocks"
          (Core.Units.format_size e.size_bytes)
          e.block_bytes
      in
      match
        List.find_opt
          (fun (a : cache_result) ->
            a.size_bytes = e.size_bytes && a.block_bytes = e.block_bytes)
          actual.caches
      with
      | None ->
        report
          (finding ~file "golden.grid" "run %S: %s missing from the sweep"
             name geometry)
      | Some a ->
        let cexact what ef =
          exact (geometry ^ ": " ^ what) (ef e.stats) (ef a.stats)
        in
        cexact "refs" (fun s -> s.Memsim.Cache.refs);
        cexact "collector refs" (fun s -> s.Memsim.Cache.collector_refs);
        cexact "misses" (fun s -> s.Memsim.Cache.misses);
        cexact "collector misses" (fun s -> s.Memsim.Cache.collector_misses);
        cexact "alloc misses" (fun s -> s.Memsim.Cache.alloc_misses);
        cexact "fetches" (fun s -> s.Memsim.Cache.fetches);
        cexact "collector fetches" (fun s -> s.Memsim.Cache.collector_fetches);
        cexact "writebacks" (fun s -> s.Memsim.Cache.writebacks);
        cexact "collector writebacks" (fun s ->
            s.Memsim.Cache.collector_writebacks);
        cexact "writes" (fun s -> s.Memsim.Cache.writes);
        cexact "collector writes" (fun s -> s.Memsim.Cache.collector_writes);
        ratio (geometry ^ ": miss ratio") e.miss_ratio a.miss_ratio;
        ratio
          (geometry ^ ": collector miss ratio")
          e.collector_miss_ratio a.collector_miss_ratio;
        ratio (geometry ^ ": O_cache slow") e.overhead_slow a.overhead_slow;
        ratio (geometry ^ ": O_cache fast") e.overhead_fast a.overhead_fast)
    expected.caches;
  List.rev !acc

(* --- Serialization ------------------------------------------------------ *)

let stats_to_fields (s : Memsim.Cache.stats) =
  [ Sx.int "refs" s.Memsim.Cache.refs;
    Sx.int "collector-refs" s.Memsim.Cache.collector_refs;
    Sx.int "misses" s.Memsim.Cache.misses;
    Sx.int "collector-misses" s.Memsim.Cache.collector_misses;
    Sx.int "alloc-misses" s.Memsim.Cache.alloc_misses;
    Sx.int "fetches" s.Memsim.Cache.fetches;
    Sx.int "collector-fetches" s.Memsim.Cache.collector_fetches;
    Sx.int "writebacks" s.Memsim.Cache.writebacks;
    Sx.int "collector-writebacks" s.Memsim.Cache.collector_writebacks;
    Sx.int "writes" s.Memsim.Cache.writes;
    Sx.int "collector-writes" s.Memsim.Cache.collector_writes
  ]

let stats_of_fields ~file fields : Memsim.Cache.stats =
  let g = Sx.get_int ~file fields in
  { Memsim.Cache.refs = g "refs";
    collector_refs = g "collector-refs";
    misses = g "misses";
    collector_misses = g "collector-misses";
    alloc_misses = g "alloc-misses";
    fetches = g "fetches";
    collector_fetches = g "collector-fetches";
    writebacks = g "writebacks";
    collector_writebacks = g "collector-writebacks";
    writes = g "writes";
    collector_writes = g "collector-writes"
  }

let cache_to_datum (c : cache_result) =
  Sx.field "cache"
    [ Sx.int "size" c.size_bytes;
      Sx.int "block" c.block_bytes;
      Sx.field "counts" (stats_to_fields c.stats);
      Sx.field "derived"
        [ Sx.real "miss-ratio" c.miss_ratio;
          Sx.real "collector-miss-ratio" c.collector_miss_ratio;
          Sx.real "overhead-slow" c.overhead_slow;
          Sx.real "overhead-fast" c.overhead_fast
        ]
    ]

let cache_of_datum ~file d =
  let fields = Sx.fields ~file ~tag:"cache" d in
  let counts =
    List.map
      (fun d ->
        match Sexp.Datum.list_opt d with
        | Some (Sexp.Datum.Sym key :: rest) -> (key, rest)
        | Some _ | None ->
          raise
            (Sx.Parse_error
               (Printf.sprintf "%s: malformed (counts ...) entry" file)))
      (Sx.get ~file fields "counts")
  in
  let derived =
    List.map
      (fun d ->
        match Sexp.Datum.list_opt d with
        | Some (Sexp.Datum.Sym key :: rest) -> (key, rest)
        | Some _ | None ->
          raise
            (Sx.Parse_error
               (Printf.sprintf "%s: malformed (derived ...) entry" file)))
      (Sx.get ~file fields "derived")
  in
  { size_bytes = Sx.get_int ~file fields "size";
    block_bytes = Sx.get_int ~file fields "block";
    stats = stats_of_fields ~file counts;
    miss_ratio = Sx.get_real ~file derived "miss-ratio";
    collector_miss_ratio = Sx.get_real ~file derived "collector-miss-ratio";
    overhead_slow = Sx.get_real ~file derived "overhead-slow";
    overhead_fast = Sx.get_real ~file derived "overhead-fast"
  }

let to_datum t =
  Sexp.Datum.list
    [ Sexp.Datum.sym "golden-fixture";
      Sx.field "version" [ Sexp.Datum.Int Manifest.current_version ];
      Manifest.run_to_datum t.run;
      Sx.field "machine"
        [ Sx.str "value" t.value;
          Sx.int "refs" t.refs;
          Sx.int "collector-refs" t.collector_refs;
          Sx.int "instructions" t.instructions;
          Sx.int "collector-instructions" t.collector_instructions;
          Sx.int "collections" t.collections;
          Sx.int "allocated" t.bytes_allocated;
          Sx.int "trace-events" t.trace_events;
          Sx.int "trace-bytes" t.trace_bytes
        ];
      Sx.field "caches" (List.map cache_to_datum t.caches)
    ]

let of_datum ~file d =
  let fields = Sx.fields ~file ~tag:"golden-fixture" d in
  let version = Sx.get_int ~file fields "version" in
  if version <> Manifest.current_version then
    raise
      (Sx.Parse_error
         (Printf.sprintf "%s: fixture version %d, this build reads %d" file
            version Manifest.current_version));
  let run =
    Manifest.run_of_datum ~file
      (Sx.field "run" (Sx.get ~file fields "run"))
  in
  let machine =
    List.map
      (fun d ->
        match Sexp.Datum.list_opt d with
        | Some (Sexp.Datum.Sym key :: rest) -> (key, rest)
        | Some _ | None ->
          raise
            (Sx.Parse_error
               (Printf.sprintf "%s: malformed (machine ...) entry" file)))
      (Sx.get ~file fields "machine")
  in
  { run;
    value = Sx.get_str ~file machine "value";
    refs = Sx.get_int ~file machine "refs";
    collector_refs = Sx.get_int ~file machine "collector-refs";
    instructions = Sx.get_int ~file machine "instructions";
    collector_instructions = Sx.get_int ~file machine "collector-instructions";
    collections = Sx.get_int ~file machine "collections";
    bytes_allocated = Sx.get_int ~file machine "allocated";
    trace_events = Sx.get_int ~file machine "trace-events";
    trace_bytes = Sx.get_int ~file machine "trace-bytes";
    caches =
      List.map (cache_of_datum ~file) (Sx.get ~file fields "caches")
  }

let save t path =
  Sx.write_file path
    ~header:
      (Printf.sprintf
         "Golden fixture for run %S: committed reference output, verified \
          by `repro golden verify` and the CI regression gate."
         t.run.Manifest.name)
    (to_datum t)

let load path = of_datum ~file:path (Sx.read_file path)
