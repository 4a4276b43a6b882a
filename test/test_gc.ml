(* Collector tests.  The strongest check is differential: any program
   must compute the same value and produce the same output under every
   collector configuration, since collection is semantically
   invisible. *)

let machine gc =
  Vscheme.Machine.create
    { Vscheme.Machine.default_config with
      gc;
      heap_bytes = 16 * 1024 * 1024
    }

let eval m src =
  Vscheme.Machine.value_to_string m (Vscheme.Machine.eval_string m src)

let cheney_stats m =
  match Vscheme.Machine.collector m with
  | Vscheme.Machine.Cheney_collector gc -> Vscheme.Gc_cheney.stats gc
  | _ -> Alcotest.fail "expected a Cheney collector"

let generational_stats m =
  match Vscheme.Machine.collector m with
  | Vscheme.Machine.Generational_collector gc ->
    Vscheme.Gc_generational.stats gc
  | _ -> Alcotest.fail "expected a generational collector"

let marksweep m =
  match Vscheme.Machine.collector m with
  | Vscheme.Machine.Mark_sweep_collector gc -> gc
  | _ -> Alcotest.fail "expected a mark-sweep collector"

let configs =
  [ ("no-gc", Vscheme.Machine.No_gc);
    ("cheney-128k", Vscheme.Machine.Cheney { semispace_bytes = 128 * 1024 });
    ("cheney-1m", Vscheme.Machine.Cheney { semispace_bytes = 1024 * 1024 });
    ( "gen-32k/2m",
      Vscheme.Machine.Generational
        { nursery_bytes = 32 * 1024; old_bytes = 2 * 1024 * 1024 } );
    ( "gen-256k/2m",
      Vscheme.Machine.Generational
        { nursery_bytes = 256 * 1024; old_bytes = 2 * 1024 * 1024 } );
    ( "marksweep-64k/4m",
      Vscheme.Machine.Mark_sweep
        { nursery_bytes = 64 * 1024; old_bytes = 4 * 1024 * 1024 } );
    ( "marksweep-16k/1m",
      Vscheme.Machine.Mark_sweep
        { nursery_bytes = 16 * 1024; old_bytes = 1024 * 1024 } )
  ]

let differential name src =
  Alcotest.test_case name `Quick (fun () ->
      let results =
        List.map
          (fun (cname, gc) ->
            let m = machine gc in
            let v = eval m src in
            (cname, v, Vscheme.Machine.output m))
          configs
      in
      match results with
      | [] -> assert false
      | (_, v0, out0) :: rest ->
        List.iter
          (fun (cname, v, out) ->
            Alcotest.(check string) (name ^ " value under " ^ cname) v0 v;
            Alcotest.(check string) (name ^ " output under " ^ cname) out0 out)
          rest)

let differential_cases =
  [ differential "list churn"
      "(define keep '())\n\
       (let loop ((i 0) (acc 0))\n\
       \  (if (= i 3000) (cons acc (length keep))\n\
       \      (let ((l (map (lambda (x) (* x x)) (iota 15))))\n\
       \        (when (= 0 (remainder i 100)) (set! keep (cons (car l) keep)))\n\
       \        (loop (+ i 1) (+ acc (fold-left + 0 l))))))";
    differential "deep structure survives"
      "(define (build n) (if (= n 0) '() (cons (vector n (number->string n)) (build (- n 1)))))\n\
       (define big (build 800))\n\
       (let loop ((i 0)) (when (< i 40) (iota 500) (loop (+ i 1))))\n\
       (fold-left (lambda (acc v) (+ acc (vector-ref v 0))) 0 big)";
    differential "mutation via set-cdr!"
      "(define head (cons 0 '()))\n\
       (define tail head)\n\
       (let loop ((i 1))\n\
       \  (when (< i 3000)\n\
       \    (let ((cell (cons i '())))\n\
       \      (set-cdr! tail cell)\n\
       \      (set! tail cell))\n\
       \    (iota 30)\n\
       \    (loop (+ i 1))))\n\
       (fold-left + 0 head)";
    differential "strings and symbols"
      "(let loop ((i 0) (acc '()))\n\
       \  (if (= i 500) (length acc)\n\
       \      (loop (+ i 1) (cons (string-append \"s\" (number->string i)) acc))))";
    differential "closures survive collection"
      "(define fs '())\n\
       (let loop ((i 0))\n\
       \  (when (< i 200)\n\
       \    (set! fs (cons (lambda () (* i i)) fs))\n\
       \    (iota 200)\n\
       \    (loop (+ i 1))))\n\
       (fold-left (lambda (acc f) (+ acc (f))) 0 fs)";
    differential "flonum data"
      "(let loop ((i 0) (acc 0.0))\n\
       \  (if (= i 5000) (inexact->exact (* acc 100.0))\n\
       \      (loop (+ i 1) (+ acc (sqrt (exact->inexact i))))))";
    differential "display output"
      "(let loop ((i 0))\n\
       \  (when (< i 50)\n\
       \    (display i) (display \" \")\n\
       \    (iota 500)\n\
       \    (loop (+ i 1))))"
  ]

(* --- Targeted collector behaviour ------------------------------------ *)

let test_cheney_collects () =
  let m = machine (Vscheme.Machine.Cheney { semispace_bytes = 64 * 1024 }) in
  ignore (Vscheme.Machine.eval_string m "(let loop ((i 0)) (when (< i 3000) (iota 50) (loop (+ i 1))))");
  let st = cheney_stats m in
  Alcotest.(check bool) "collected at least once" true (st.Vscheme.Gc_cheney.collections > 0);
  Alcotest.(check bool) "copied some words" true (st.Vscheme.Gc_cheney.words_copied > 0);
  Alcotest.(check int) "machine agrees" st.Vscheme.Gc_cheney.collections
    (Vscheme.Machine.stats m).Vscheme.Machine.collections

let test_cheney_oom_when_live_too_big () =
  let m = machine (Vscheme.Machine.Cheney { semispace_bytes = 32 * 1024 }) in
  match
    Vscheme.Machine.eval_string m
      "(define (build n acc) (if (= n 0) acc (build (- n 1) (cons n acc)))) (build 100000 '())"
  with
  | exception Vscheme.Heap.Out_of_memory _ -> ()
  | _ -> Alcotest.fail "expected Out_of_memory"

let test_generational_minor_and_major () =
  let m =
    machine
      (Vscheme.Machine.Generational
         { nursery_bytes = 16 * 1024; old_bytes = 96 * 1024 })
  in
  (* retain enough to force promotions and eventually a major GC *)
  ignore
    (Vscheme.Machine.eval_string m
       "(define keep '())\n\
        (let loop ((i 0))\n\
        \  (when (< i 6000)\n\
        \    (set! keep (cons (vector i i i) keep))\n\
        \    (when (> (length keep) 600) (set! keep '()))\n\
        \    (loop (+ i 1))))");
  let st = generational_stats m in
  Alcotest.(check bool) "minor collections" true
    (st.Vscheme.Gc_generational.minor_collections > 0);
  Alcotest.(check bool) "major collections" true
    (st.Vscheme.Gc_generational.major_collections > 0);
  Alcotest.(check bool) "promoted words" true
    (st.Vscheme.Gc_generational.words_promoted > 0)

let test_write_barrier_records () =
  let m =
    machine
      (Vscheme.Machine.Generational
         { nursery_bytes = 32 * 1024; old_bytes = 2 * 1024 * 1024 })
  in
  (* Build an old object, then store nursery pointers into it. *)
  ignore
    (Vscheme.Machine.eval_string m
       "(define old (vector '() '() '()))\n\
        (iota 20000)  ; force a minor GC so old is promoted\n\
        (vector-set! old 0 (list 1 2 3))\n\
        (vector-set! old 1 (list 4 5))\n\
        (iota 20000)  ; another GC: the barrier must keep old's lists alive\n\
        #t");
  let st = generational_stats m in
  Alcotest.(check bool) "barrier hits recorded" true
    (st.Vscheme.Gc_generational.barrier_hits > 0);
  Alcotest.(check string) "old->new pointers survive" "(1 2 3) (4 5)"
    (eval m "(begin (display (vector-ref old 0)) (display \" \") (display (vector-ref old 1)) (vector-ref old 1))"
     |> fun _ -> Vscheme.Machine.output m)

let test_collector_refs_attributed () =
  let mut = ref 0 in
  let col = ref 0 in
  let sink =
    { Memsim.Trace.access =
        (fun _ _ phase ->
          match phase with
          | Memsim.Trace.Mutator -> incr mut
          | Memsim.Trace.Collector -> incr col)
    }
  in
  let m =
    Vscheme.Machine.create
      { Vscheme.Machine.default_config with
        gc = Vscheme.Machine.Cheney { semispace_bytes = 64 * 1024 };
        sink
      }
  in
  ignore (Vscheme.Machine.eval_string m "(let loop ((i 0)) (when (< i 3000) (iota 50) (loop (+ i 1))))");
  Alcotest.(check bool) "collector made traced references" true (!col > 0);
  Alcotest.(check bool) "mutator dominates" true (!mut > !col)

let test_rehash_after_gc () =
  (* A table keyed by heap objects must still find its keys after the
     keys move, and the stamp mechanism must count the rehash. *)
  let m = machine (Vscheme.Machine.Cheney { semispace_bytes = 64 * 1024 }) in
  let v =
    eval m
      "(define t (make-table))\n\
       (define keys '())\n\
       (let loop ((i 0))\n\
       \  (when (< i 50)\n\
       \    (let ((k (cons i i)))\n\
       \      (set! keys (cons k keys))\n\
       \      (table-set! t k (* i 10)))\n\
       \    (loop (+ i 1))))\n\
       (let loop ((i 0)) (when (< i 80) (iota 400) (loop (+ i 1))))\n\
       (fold-left (lambda (acc k) (+ acc (table-ref t k))) 0 keys)"
  in
  Alcotest.(check string) "all keys found after moving" "12250" v;
  Alcotest.(check bool) "collections happened" true
    ((Vscheme.Machine.stats m).Vscheme.Machine.collections > 0)

let test_gc_instruction_charging () =
  let m = machine (Vscheme.Machine.Cheney { semispace_bytes = 64 * 1024 }) in
  ignore (Vscheme.Machine.eval_string m "(let loop ((i 0)) (when (< i 2000) (iota 60) (loop (+ i 1))))");
  let st = Vscheme.Machine.stats m in
  Alcotest.(check bool) "collector charged" true (st.Vscheme.Machine.collector_insns > 0)

let test_aggressive_collects_more () =
  let run nursery =
    let m =
      machine
        (Vscheme.Machine.Generational
           { nursery_bytes = nursery; old_bytes = 2 * 1024 * 1024 })
    in
    ignore (Vscheme.Machine.eval_string m "(let loop ((i 0)) (when (< i 4000) (iota 40) (loop (+ i 1))))");
    (Vscheme.Machine.stats m).Vscheme.Machine.collections
  in
  let aggressive = run (16 * 1024) in
  let infrequent = run (512 * 1024) in
  Alcotest.(check bool)
    (Printf.sprintf "aggressive (%d) > infrequent (%d)" aggressive infrequent)
    true (aggressive > infrequent)

let test_marksweep_reuses_storage () =
  let m =
    machine
      (Vscheme.Machine.Mark_sweep
         { nursery_bytes = 32 * 1024; old_bytes = 512 * 1024 })
  in
  (* Retain then drop repeatedly: majors must recycle the old
     generation through the free lists. *)
  ignore
    (Vscheme.Machine.eval_string m
       "(define keep '())\n\
        (let loop ((i 0))\n\
        \  (when (< i 30000)\n\
        \    (set! keep (cons (vector i i i) keep))\n\
        \    (when (> (length keep) 800) (set! keep '()))\n\
        \    (loop (+ i 1))))");
  let st = Vscheme.Gc_marksweep.stats (marksweep m) in
  Alcotest.(check bool) "minors ran" true
    (st.Vscheme.Gc_marksweep.minor_collections > 0);
  Alcotest.(check bool) "majors ran" true
    (st.Vscheme.Gc_marksweep.major_collections > 0);
  Alcotest.(check bool) "sweeping recovered storage" true
    (st.Vscheme.Gc_marksweep.words_swept > 0);
  Alcotest.(check bool) "free lists non-empty afterwards" true
    (Vscheme.Gc_marksweep.free_words (marksweep m) > 0)

let test_marksweep_barrier () =
  let m =
    machine
      (Vscheme.Machine.Mark_sweep
         { nursery_bytes = 32 * 1024; old_bytes = 2 * 1024 * 1024 })
  in
  ignore
    (Vscheme.Machine.eval_string m
       "(define old (vector '() '()))\n\
        (let loop ((i 0)) (when (< i 60) (iota 400) (loop (+ i 1))))\n\
        (vector-set! old 0 (list 7 8 9))\n\
        (let loop ((i 0)) (when (< i 60) (iota 400) (loop (+ i 1))))\n\
        #t");
  let st = Vscheme.Gc_marksweep.stats (marksweep m) in
  Alcotest.(check bool) "barrier hits" true
    (st.Vscheme.Gc_marksweep.barrier_hits > 0);
  Alcotest.(check string) "old->new survives" "(7 8 9)"
    (eval m "(vector-ref old 0)")

(* --- Ownership: a collector lives exactly as long as its machine ---- *)

let small_collectors =
  [ ("cheney", Vscheme.Machine.Cheney { semispace_bytes = 64 * 1024 });
    ( "generational",
      Vscheme.Machine.Generational
        { nursery_bytes = 32 * 1024; old_bytes = 512 * 1024 } );
    ( "mark-sweep",
      Vscheme.Machine.Mark_sweep
        { nursery_bytes = 32 * 1024; old_bytes = 512 * 1024 } ) ]

(* Build [n] machines that each collect at least once, count their
   heaps' finalisations, and drop them all: nothing process-wide may
   keep a dropped machine (and its mapped word store) reachable. *)
let collected_after_drop gc n =
  let freed = ref 0 in
  let[@inline never] build () =
    let m = machine gc in
    ignore
      (Vscheme.Machine.eval_string m
         "(let loop ((i 0)) (when (< i 300) (iota 50) (loop (+ i 1))))");
    if (Vscheme.Machine.stats m).Vscheme.Machine.collections = 0 then
      Alcotest.fail "the machine never collected";
    Gc.finalise_last (fun () -> incr freed) (Vscheme.Machine.heap m)
  in
  for _ = 1 to n do
    build ()
  done;
  Gc.full_major ();
  Gc.full_major ();
  !freed

let test_dropped_machines_collected () =
  List.iter
    (fun (name, gc) ->
      Alcotest.(check int)
        (name ^ ": every dropped machine is collected")
        20 (collected_after_drop gc 20))
    small_collectors

type collector_stats =
  | Cheney_stats of Vscheme.Gc_cheney.stats
  | Generational_stats of Vscheme.Gc_generational.stats
  | Mark_sweep_stats of Vscheme.Gc_marksweep.stats * int
  | No_stats

let collector_stats m =
  match Vscheme.Machine.collector m with
  | Vscheme.Machine.Cheney_collector gc ->
    Cheney_stats (Vscheme.Gc_cheney.stats gc)
  | Vscheme.Machine.Generational_collector gc ->
    Generational_stats (Vscheme.Gc_generational.stats gc)
  | Vscheme.Machine.Mark_sweep_collector gc ->
    Mark_sweep_stats
      (Vscheme.Gc_marksweep.stats gc, Vscheme.Gc_marksweep.free_words gc)
  | Vscheme.Machine.No_collector -> No_stats

(* Machines built on worker domains own their collector stats: two
   domains at once give every machine the stats a serial run gives it.
   Runner.record keeps the machine, so it shows the collector's own
   counters; Runner.with_lease, which goes through the trace memo and keeps
   no machine, must return the serial run's machine stats when two
   worker domains lease at once, as E-H1's cells do.  A heap size no
   other case in this binary uses makes every lease a fresh
   production. *)
let test_leased_collector_stats () =
  let heap_bytes = 40 * 1024 * 1024 in
  let cells =
    Array.of_list
      (List.concat_map
         (fun w ->
           List.map
             (fun gc -> (gc, w))
             [ Vscheme.Machine.Generational
                 { nursery_bytes = 64 * 1024; old_bytes = 24 * 1024 * 1024 };
               Vscheme.Machine.Mark_sweep
                 { nursery_bytes = 64 * 1024; old_bytes = 24 * 1024 * 1024 } ])
         Workloads.Workload.[ nbody; mexpr ])
  in
  let stats jobs =
    let slots = Array.make (Array.length cells) None in
    Memsim.Sweep.parallel_for ~jobs (Array.length cells) (fun i ->
        let gc, w = cells.(i) in
        let r, recording = Core.Runner.record ~gc ~heap_bytes ~scale:1 w in
        Memsim.Recording.release recording;
        slots.(i) <- Some (r.Core.Runner.stats, collector_stats r.machine));
    Array.map (function Some s -> s | None -> assert false) slots
  in
  let serial = stats 1 and parallel = stats 2 in
  Array.iteri
    (fun i (run, gc) ->
      let run1, gc1 = serial.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "cell %d collected" i)
        true (run1.Vscheme.Machine.collections > 0);
      Alcotest.(check bool)
        (Printf.sprintf "cell %d machine stats" i) true (run1 = run);
      Alcotest.(check bool)
        (Printf.sprintf "cell %d collector stats" i) true (gc1 = gc))
    parallel;
  let productions () =
    List.assoc "runner.productions" (Core.Runner.counters ())
  in
  let before = productions () in
  let leased = Array.make (Array.length cells) None in
  Memsim.Sweep.parallel_for ~jobs:2 (Array.length cells) (fun i ->
      let gc, w = cells.(i) in
      Core.Runner.with_lease ~gc ~heap_bytes ~scale:1 w (fun r _ ->
          leased.(i) <- Some r.Core.Runner.stats));
  Alcotest.(check int) "every leased cell recorded afresh"
    (before + Array.length cells) (productions ());
  Array.iteri
    (fun i stats ->
      Alcotest.(check bool)
        (Printf.sprintf "leased cell %d machine stats" i) true
        (Some (fst serial.(i)) = stats))
    leased

(* Property: random cons-tree construction with interleaved garbage is
   GC-invariant. *)
let gc_invariance_prop =
  QCheck.Test.make ~count:20 ~name:"random churn is GC-invariant"
    QCheck.(pair (int_range 1 40) (int_range 1 60))
    (fun (keep_every, per_round) ->
      let src =
        Printf.sprintf
          "(define keep '())\n\
           (let loop ((i 0) (acc 0))\n\
           \  (if (= i 400) (cons acc (length keep))\n\
           \      (let ((l (iota %d)))\n\
           \        (when (= 0 (remainder i %d))\n\
           \          (set! keep (cons (car l) keep)))\n\
           \        (loop (+ i 1) (+ acc (length l))))))"
          per_round keep_every
      in
      let expected = eval (machine Vscheme.Machine.No_gc) src in
      List.for_all
        (fun (_, gc) -> eval (machine gc) src = expected)
        (List.tl configs))

let () =
  Alcotest.run "gc"
    [ ("differential", differential_cases);
      ( "collectors",
        [ Alcotest.test_case "cheney collects" `Quick test_cheney_collects;
          Alcotest.test_case "cheney OOM on oversized live set" `Quick
            test_cheney_oom_when_live_too_big;
          Alcotest.test_case "generational minor+major" `Quick
            test_generational_minor_and_major;
          Alcotest.test_case "write barrier" `Quick test_write_barrier_records;
          Alcotest.test_case "collector refs attributed" `Quick
            test_collector_refs_attributed;
          Alcotest.test_case "tables rehash after GC" `Quick test_rehash_after_gc;
          Alcotest.test_case "collector instructions charged" `Quick
            test_gc_instruction_charging;
          Alcotest.test_case "aggressive collects more often" `Quick
            test_aggressive_collects_more;
          Alcotest.test_case "mark-sweep reuses storage" `Quick
            test_marksweep_reuses_storage;
          Alcotest.test_case "mark-sweep barrier" `Quick test_marksweep_barrier
        ] );
      ( "ownership",
        [ Alcotest.test_case "dropped machines are collected" `Quick
            test_dropped_machines_collected;
          Alcotest.test_case "leased collector stats" `Quick
            test_leased_collector_stats
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest gc_invariance_prop ])
    ]
