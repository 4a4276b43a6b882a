type run = {
  name : string;
  workload : string;
  scale : int;
  gc : Vscheme.Machine.gc_spec;
  heap_bytes : int option;
  cache_sizes : int list;
  block_sizes : int list;
  write_miss_policy : Memsim.Cache.write_miss_policy;
  jobs : int;
  trace_format : Memsim.Recording.format;
  hier : Memsim.Hier.cpu option;
}

type t = {
  version : int;
  runs : run list;
}

let current_version = 1

(* The committed suite: every workload at smoke scale under a Cheney
   collector small enough to force several collections (so the
   collector-phase counters are non-trivial), over the corners of the
   paper grid, plus one no-GC control.  Two sweep jobs so `golden
   verify` exercises the parallel path CI gates on — the statistics
   are parallelism-invariant. *)
let default =
  let kb n = n * 1024 in
  let smoke workload gc =
    { name = workload;
      workload;
      scale = 1;
      gc;
      heap_bytes = None;
      cache_sizes = [ kb 64; kb 512 ];
      block_sizes = [ 32; 128 ];
      write_miss_policy = Memsim.Cache.Write_validate;
      jobs = 2;
      trace_format = Memsim.Recording.V2;
      hier = None
    }
  in
  let cheney semi = Vscheme.Machine.Cheney { semispace_bytes = kb semi } in
  { version = current_version;
    runs =
      [ smoke "selfcomp" (cheney 48);
        smoke "prover" (cheney 48);
        smoke "lred" (cheney 256);
        smoke "nbody" (cheney 64);
        smoke "mexpr" (cheney 64);
        { (smoke "nbody" Vscheme.Machine.No_gc) with name = "nbody-nogc" };
        (* One run through the fused 3-level Coffee Lake hierarchy:
           the per-level counters become the fixture's cache entries
           (the plain sweep grid is skipped). *)
        { (smoke "nbody" (cheney 64)) with
          name = "nbody-cfl-hier";
          cache_sizes = [];
          block_sizes = [];
          jobs = 1;
          hier = Some Memsim.Hier.Cfl
        }
      ]
  }

(* --- Serialization ------------------------------------------------------ *)

let policy_of_string ~file s =
  match Memsim.Cache.write_miss_of_label s with
  | Some p -> p
  | None ->
    raise (Sx.Parse_error (Printf.sprintf "%s: unknown policy %S" file s))

let format_of_string ~file s =
  match Memsim.Recording.format_of_label s with
  | Some f -> f
  | None ->
    raise (Sx.Parse_error (Printf.sprintf "%s: unknown trace format %S" file s))

let run_to_datum r =
  Sx.field "run"
    ([ Sx.str "name" r.name;
       Sx.str "workload" r.workload;
       Sx.int "scale" r.scale;
       Sx.str "gc" (Core.Units.format_gc r.gc)
     ]
     @ (match r.heap_bytes with
        | None -> []
        | Some b -> [ Sx.str "heap" (Core.Units.format_size b) ])
     @ [ Sx.int_list "cache-sizes" r.cache_sizes;
         Sx.int_list "block-sizes" r.block_sizes;
         Sx.str "policy" (Memsim.Cache.write_miss_label r.write_miss_policy);
         Sx.int "jobs" r.jobs;
         Sx.str "format" (Memsim.Recording.format_label r.trace_format)
       ]
     (* Optional so fixtures recorded before hierarchies existed parse
        and re-serialize byte-identically. *)
     @ (match r.hier with
        | None -> []
        | Some cpu -> [ Sx.str "hier" (Memsim.Hier.cpu_label cpu) ]))

(* Every cell of the run's grid must be a level [Level.create]
   builds.  Refusing here names the manifest field and value at fault
   before the run is queued or measured; [Level.check] is the rule
   [create] applies, so the two cannot disagree. *)
let check_grid ~file ~cache_sizes ~block_sizes write_miss_policy =
  List.iter
    (fun (cfg : Memsim.Level.config) ->
      match Memsim.Level.check cfg with
      | Ok () -> ()
      | Error (field, msg) ->
        let what =
          if String.equal field "block_bytes" then
            Printf.sprintf "block-sizes: %d" cfg.Memsim.Level.block_bytes
          else
            Printf.sprintf "cache-sizes: %d (with %d-byte blocks)"
              cfg.Memsim.Level.size_bytes cfg.Memsim.Level.block_bytes
        in
        raise (Sx.Parse_error (Printf.sprintf "%s: %s: %s" file what msg)))
    (Memsim.Sweep.grid ~write_miss_policy ~cache_sizes ~block_sizes ())

let run_of_fields ~file fields =
  let gc_string = Sx.get_str ~file fields "gc" in
  let gc =
    match Core.Units.parse_gc gc_string with
    | Ok gc -> gc
    | Error msg -> raise (Sx.Parse_error (Printf.sprintf "%s: %s" file msg))
  in
  let heap_bytes =
    match Sx.get_opt fields "heap" with
    | None -> None
    | Some _ -> (
      match Core.Units.parse_size (Sx.get_str ~file fields "heap") with
      | Ok b -> Some b
      | Error msg -> raise (Sx.Parse_error (Printf.sprintf "%s: %s" file msg)))
  in
  let cache_sizes = Sx.get_int_list ~file fields "cache-sizes" in
  let block_sizes = Sx.get_int_list ~file fields "block-sizes" in
  let write_miss_policy =
    policy_of_string ~file (Sx.get_str ~file fields "policy")
  in
  check_grid ~file ~cache_sizes ~block_sizes write_miss_policy;
  { name = Sx.get_str ~file fields "name";
    workload = Sx.get_str ~file fields "workload";
    scale = Sx.get_int ~file fields "scale";
    gc;
    heap_bytes;
    cache_sizes;
    block_sizes;
    write_miss_policy;
    jobs = Sx.get_int ~file fields "jobs";
    trace_format = format_of_string ~file (Sx.get_str ~file fields "format");
    hier =
      (match Sx.get_opt fields "hier" with
       | None -> None
       | Some _ -> (
         let label = Sx.get_str ~file fields "hier" in
         match Memsim.Hier.cpu_of_label label with
         | Some cpu -> Some cpu
         | None ->
           raise
             (Sx.Parse_error
                (Printf.sprintf "%s: unknown hierarchy %S" file label))))
  }

let run_of_datum ~file d =
  run_of_fields ~file (Sx.fields ~file ~tag:"run" d)

(* --- Content hashing ---------------------------------------------------- *)

(* The canonical content datum re-serializes the *parsed* record, so
   field order, whitespace and comments in the source text cannot
   reach the hash, and an elided optional field hashes identically to
   its explicit default.  [name] is a label (the fixture file stem)
   and [jobs] is provenance (results are parallelism-invariant), so
   neither determines the run's numbers and both are excluded: a
   resubmission of the same configuration under a new name or a
   different worker count is the same content. *)
let content_datum r =
  match Sexp.Datum.list_opt (run_to_datum r) with
  | Some (head :: fields) ->
    Sexp.Datum.list
      (head
       :: List.filter
            (fun f ->
              match Sexp.Datum.list_opt f with
              | Some (Sexp.Datum.Sym ("name" | "jobs") :: _) -> false
              | Some _ | None -> true)
            fields)
  | Some [] | None -> assert false

let content_hash r =
  Digest.to_hex (Digest.string (Sexp.Datum.to_string (content_datum r)))

let to_datum t =
  Sexp.Datum.list
    [ Sexp.Datum.sym "golden-manifest";
      Sx.field "version" [ Sexp.Datum.Int t.version ];
      Sx.field "runs" (List.map run_to_datum t.runs)
    ]

let of_datum ~file d =
  let fields = Sx.fields ~file ~tag:"golden-manifest" d in
  let version = Sx.get_int ~file fields "version" in
  if version <> current_version then
    raise
      (Sx.Parse_error
         (Printf.sprintf "%s: manifest version %d, this build reads %d" file
            version current_version));
  let runs =
    List.map (run_of_datum ~file) (Sx.get ~file fields "runs")
  in
  { version; runs }

let save t path =
  Sx.write_file path
    ~header:
      "Golden-run manifest: what `repro golden record|verify` runs.  \
       Regenerate fixtures with `repro golden record` after deliberate \
       changes."
    (to_datum t)

let load path = of_datum ~file:path (Sx.read_file path)
