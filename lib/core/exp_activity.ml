let block_bytes = 64

let make_analyzer size_kb =
  Analysis.Activity.create
    (Memsim.Level.create
       (Memsim.Level.config ~size_bytes:(size_kb * 1024) ~block_bytes ~ways:1
          ()))

(* Record [w]'s default cell, replay the recording into each analyzer,
   then release it. *)
let replay_into w analyzers =
  let _, recording = Runner.record w in
  List.iter
    (fun a -> Memsim.Recording.replay recording (Analysis.Activity.sink a))
    analyzers;
  Memsim.Recording.release recording

(* One selfcomp recording feeds both the 64k (F5) and 128k (F8)
   caches. *)
let selfcomp_pass =
  lazy
    (let c64 = make_analyzer 64 in
     let c128 = make_analyzer 128 in
     replay_into Workloads.Workload.selfcomp [ c64; c128 ];
     (Analysis.Activity.analyze c64, Analysis.Activity.analyze c128))

let run_one w =
  let a = make_analyzer 64 in
  replay_into w [ a ];
  Analysis.Activity.analyze a

let figure_selfcomp_64k ppf =
  Report.heading ppf
    "E-F5 (sec. 7 figure): cache activity, selfcomp, 64k / 64b";
  let a64, _ = Lazy.force selfcomp_pass in
  Analysis.Activity.render ppf a64;
  Format.fprintf ppf
    "@.paper shape (orbit, 64k): most blocks cluster in the middle \
     decades; the most-referenced@.blocks span very bad to very good; the \
     best cases win, dropping the cumulative ratio by a@.factor of ~1.6 \
     at the end (0.027 to 0.017 for orbit).@."

let figure_prover_64k ppf =
  Report.heading ppf
    "E-F6 (sec. 7 figure): cache activity, prover, 64k / 64b";
  Analysis.Activity.render ppf (run_one Workloads.Workload.prover);
  Format.fprintf ppf
    "@.paper shape (imps, 64k): as F5, except that when two busy blocks \
     collide the cumulative@.curve shows a thrashing jump among the \
     most-referenced blocks.@."

let figure_mexpr_64k ppf =
  Report.heading ppf
    "E-F7 (sec. 7 figure): cache activity, mexpr, 64k / 64b";
  Analysis.Activity.render ppf (run_one Workloads.Workload.mexpr);
  Format.fprintf ppf
    "@.paper shape (gambit, 64k): many long-lived dynamic blocks push the \
     less-referenced blocks'@.local ratios an order of magnitude above \
     the other programs'; the best-case blocks still pull@.the global \
     ratio down in the end.@."

let figure_selfcomp_128k ppf =
  Report.heading ppf
    "E-F8 (sec. 7 figure): cache activity, selfcomp, 128k / 64b";
  let a64, a128 = Lazy.force selfcomp_pass in
  Analysis.Activity.render ppf a128;
  Format.fprintf ppf
    "@.paper shape (orbit, 128k): doubling the cache improves both halves \
     of the graph - more of the@.most-referenced blocks become best-case, \
     the rest cluster more tightly, and the global ratio@.falls (64k: \
     %.4f here; 128k: %.4f).@."
    a64.Analysis.Activity.global_miss_ratio
    a128.Analysis.Activity.global_miss_ratio
