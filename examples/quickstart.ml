(* Quickstart: simulate a direct-mapped cache by hand, then attach one
   to a whole Scheme system and measure a small program, reproducing
   the paper's O_cache metric on it.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* 1. A cache is a trace consumer.  Drive it with a synthetic
     trace: a linear allocation sweep, exactly the paper's "wave". *)
  let cache =
    Memsim.Level.create
      (Memsim.Level.config ~size_bytes:(32 * 1024) ~block_bytes:64 ~ways:1 ())
  in
  for i = 0 to 99_999 do
    (* initializing store to consecutive words *)
    Memsim.Level.access cache (i * 4) Memsim.Trace.Alloc_write
      Memsim.Trace.Mutator
  done;
  let s = Memsim.Level.stats cache in
  Printf.printf
    "synthetic allocation sweep: %d refs, %d allocation misses, %d fetches\n"
    s.Memsim.Cache.refs s.Memsim.Cache.alloc_misses s.Memsim.Cache.fetches;
  Printf.printf
    "  (write-validate makes the sweep free: misses without fetches)\n\n";

  (* 2. Now a whole Scheme system wired to a cache. *)
  let cache =
    Memsim.Level.create
      (Memsim.Level.config ~size_bytes:(64 * 1024) ~block_bytes:64 ~ways:1 ())
  in
  let machine =
    Vscheme.Machine.create
      { Vscheme.Machine.default_config with
        sink = Memsim.Level.sink cache;
        heap_bytes = 16 * 1024 * 1024
      }
  in
  let value =
    Vscheme.Machine.eval_string machine
      {|
        (define (tree-insert t k)
          (cond ((null? t) (list k '() '()))
                ((< k (car t)) (list (car t) (tree-insert (cadr t) k) (caddr t)))
                (else (list (car t) (cadr t) (tree-insert (caddr t) k)))))
        (define (tree-size t) (if (null? t) 0 (+ 1 (tree-size (cadr t)) (tree-size (caddr t)))))
        (let loop ((i 0) (t '()))
          (if (= i 2000)
              (tree-size t)
              (loop (+ i 1) (tree-insert t (random 10000)))))
      |}
  in
  Printf.printf "Scheme program result: %s\n"
    (Vscheme.Machine.value_to_string machine value);
  let run = Vscheme.Machine.stats machine in
  let s = Memsim.Level.stats cache in
  Printf.printf "instructions: %d   data references: %d   allocated: %d bytes\n"
    run.Vscheme.Machine.mutator_insns s.Memsim.Cache.refs
    run.Vscheme.Machine.bytes_allocated;

  (* 3. The paper's temporal metric: O_cache = fetches x penalty /
     instructions, for both hypothetical processors. *)
  List.iter
    (fun cpu ->
      Printf.printf "O_cache on the %s processor: %.2f%%\n"
        (Format.asprintf "%a" Memsim.Timing.pp_processor cpu)
        (100.0
         *. Memsim.Timing.cache_overhead cpu ~block_bytes:64
              ~fetches:s.Memsim.Cache.fetches
              ~instructions:run.Vscheme.Machine.mutator_insns))
    Memsim.Timing.all_processors
