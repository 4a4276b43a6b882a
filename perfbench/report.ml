(* Metric names, units, and the printed report.  The last line of
   standard output is one JSON object: with tracing off it carries the
   end-to-end metrics, with tracing on the per-layer ones. *)

let end_to_end =
  [ ("setup_s", "s"); ("run_s", "s"); ("peak_rss_mb", "MB");
    ("job_p50_ms", "ms"); ("job_p75_ms", "ms"); ("hit_p50_ms", "ms") ]

let layers = [ "vscheme"; "recording"; "hier"; "serve" ]

let per_layer =
  [ ("vscheme.events", "count"); ("vscheme.collections", "count");
    ("vscheme.ns_per_event", "ns");
    ("recording.save_v2_ns_per_event", "ns");
    ("recording.load_v2_ns_per_event", "ns");
    ("recording.save_v3_ns_per_event", "ns");
    ("recording.load_v3_ns_per_event", "ns");
    ("recording.v2_bytes_per_event", "B");
    ("sweep.event_configs", "count");
    ("sweep.misses", "count");
    ("hier.events", "count"); ("hier.ns_per_event", "ns");
    ("hier.l1_misses", "count"); ("hier.l3_misses", "count");
    ("serve.ping_p50_ms", "ms"); ("serve.hit_p99_ms", "ms");
    ("serve.cache_hit_ratio", "ratio"); ("serve.failed", "count");
    ("serve.requeued", "count") ]
  @ List.concat_map
      (fun l -> [ (l ^ ".busy_s", "s"); (l ^ ".share", "ratio") ])
      layers
  @ [ ("ref.kernel_ms_p50", "ms"); ("ref.kernel_ms_spread", "ratio");
      ("ref.raw_run_s", "s");
      ("trace.overhead", "ratio"); ("trace.unattributed_s", "s");
      ("trace.unattributed_share", "ratio"); ("trace.spans", "count") ]

let valid_name s =
  s <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

(* What a workload hands back after its timed phase. *)
type outcome = {
  setup : Meter.sample list;
  passes : Harness.pass list;
  peak_rss_kb : int;
  counts : (string * float) list;
      (** per-layer values only the workload knows: exact counts of one
          pass, serve-side ratios *)
}

(* Kernel spread that normalization is trusted to absorb: beyond it
   the run is flagged, not silently normalized. *)
let drift_limit = 0.25

let spread xs =
  let q1, m, q3 = Stats.quartiles xs in
  if m > 0. then (q3 -. q1) /. m else 0.

let median_of f l = Stats.median (List.map f l)

let end_to_end_values env o =
  let untraced = List.filter (fun p -> not p.Harness.traced) o.passes in
  let timed = if untraced = [] then o.passes else untraced in
  let job = Harness.samples env Harness.Job in
  [ ("setup_s", median_of (fun s -> s.Meter.norm_s) o.setup,
     median_of (fun s -> s.Meter.host_s) o.setup);
    ("run_s", median_of (fun p -> p.Harness.norm_s) timed,
     median_of (fun p -> p.Harness.raw_s) timed);
    ("peak_rss_mb", float_of_int o.peak_rss_kb /. 1024., nan);
    ("job_p50_ms", Stats.percentile job 50.,
     Stats.percentile (Harness.raw_samples env Harness.Job) 50.);
    ("job_p75_ms", Stats.percentile job 75.,
     Stats.percentile (Harness.raw_samples env Harness.Job) 75.);
    ("hit_p50_ms", Stats.median (Harness.samples env Harness.Hit),
     Stats.median (Harness.raw_samples env Harness.Hit)) ]

let per_layer_values env o =
  let spans = env.Harness.spans in
  let traced = List.filter (fun p -> p.Harness.traced) o.passes in
  let untraced = List.filter (fun p -> not p.Harness.traced) o.passes in
  let n = float_of_int (max 1 (List.length traced)) in
  let traced_run = List.fold_left (fun a p -> a +. p.Harness.norm_s) 0. traced in
  let mean l = List.fold_left (fun a p -> a +. p.Harness.norm_s) 0. l
               /. float_of_int (max 1 (List.length l)) in
  let layer_vals =
    List.concat_map
      (fun l ->
        let self = Spans.layer_self_s spans l in
        [ (l ^ ".busy_s", self /. n);
          (l ^ ".share", if traced_run > 0. then self /. traced_run else 0.) ])
      layers
  in
  let named = List.fold_left (fun a l -> a +. Spans.layer_self_s spans l) 0. layers in
  let kernel = Meter.kernel_times env.Harness.meter in
  let timing =
    [ ("vscheme.ns_per_event", Spans.ns_per_work spans "vscheme.record");
      ("recording.save_v2_ns_per_event", Spans.ns_per_work spans "recording.save_v2");
      ("recording.load_v2_ns_per_event", Spans.ns_per_work spans "recording.load_v2");
      ("recording.save_v3_ns_per_event", Spans.ns_per_work spans "recording.save_v3");
      ("recording.load_v3_ns_per_event", Spans.ns_per_work spans "recording.load_v3");
      ("hier.ns_per_event", Spans.ns_per_work spans "hier.replay");
      ("ref.kernel_ms_p50", Stats.median kernel *. 1e3);
      ("ref.kernel_ms_spread", spread kernel);
      ("ref.raw_run_s", median_of (fun p -> p.Harness.raw_s) o.passes);
      ("trace.overhead",
       if untraced = [] || traced = [] then 0.
       else (mean traced /. mean untraced) -. 1.);
      ("trace.unattributed_s", (traced_run -. named) /. n);
      ("trace.unattributed_share",
       if traced_run > 0. then (traced_run -. named) /. traced_run else 0.);
      ("trace.spans", float_of_int (Spans.span_count spans)) ]
  in
  let known = layer_vals @ timing @ o.counts in
  List.map
    (fun (name, unit) ->
      (name, unit, Option.value ~default:0. (List.assoc_opt name known)))
    per_layer

(* NaN (a class with no samples, after failures) is not JSON. *)
let json_number v =
  if Float.is_nan v then Obs.Json.Int 0
  else if Float.is_integer v && Float.abs v < 1e15 then Obs.Json.Int (int_of_float v)
  else Obs.Json.Float v

let result_json env ~metrics =
  let t = env.Harness.tally in
  Obs.Json.Obj
    [ ("correct", Obs.Json.Bool (t.Tally.failed = 0 && t.Tally.attempted > 0));
      ("attempted", Obs.Json.Int t.Tally.attempted);
      ("failed", Obs.Json.Int t.Tally.failed);
      ( "metrics",
        Obs.Json.Obj
          (List.map
             (fun (name, unit, v) ->
               ( name,
                 Obs.Json.Obj
                   [ ("value", json_number v); ("unit", Obs.Json.Str unit) ] ))
             metrics) ) ]

let print_host_and_drift env ~workload ~seed =
  let kernel = Meter.kernel_times env.Harness.meter in
  let q1, m, q3 = Stats.quartiles kernel in
  let lo, hi = Stats.min_max kernel in
  Printf.printf "workload %s  seed %d\n" workload seed;
  Printf.printf
    "host: nproc %d, Domain.recommended_domain_count %d, running on CPU %s; \
     every sweep and replay runs with jobs = 1, so no parallel speedup is \
     claimed\n"
    (Host.nproc ()) (Domain.recommended_domain_count ()) (Host.cpus_allowed ());
  Printf.printf
    "reference kernel (raw ms, %d runs): median %.3f  q1 %.3f  q3 %.3f  min \
     %.3f  max %.3f  (k_nominal %.3f)\n"
    (List.length kernel) (m *. 1e3) (q1 *. 1e3) (q3 *. 1e3) (lo *. 1e3)
    (hi *. 1e3) (Kernel.k_nominal *. 1e3);
  let s = spread kernel in
  let p5 = Stats.percentile kernel 5. and p95 = Stats.percentile kernel 95. in
  if s > drift_limit || p95 > 2. *. p5 then
    Printf.printf
      "DRIFT FLAGGED: kernel IQR/median %.3f (limit %.2f), p95/p5 %.2f \
       (limit 2); normalized numbers from this run are not trustworthy\n"
      s drift_limit (p95 /. p5)
  else
    Printf.printf "drift: kernel IQR/median %.3f, p95/p5 %.2f, within limits\n"
      s (p95 /. p5)

let print env o ~workload ~seed ~trace =
  print_host_and_drift env ~workload ~seed;
  Printf.printf "passes: %s\n"
    (String.concat " "
       (List.map
          (fun p ->
            Printf.sprintf "%d%s:%.3fs(raw %.3fs)" p.Harness.index
              (if p.Harness.traced then "T" else "") p.Harness.norm_s
              p.Harness.raw_s)
          o.passes));
  List.iter
    (fun (name, v, raw) ->
      if Float.is_nan raw then Printf.printf "%-12s %12.4f\n" name v
      else Printf.printf "%-12s %12.4f  (raw %.4f)\n" name v raw)
    (end_to_end_values env o);
  List.iter
    (fun (label, c) ->
      match Stats.tail (Harness.samples env c) with
      | Some (p, v, n) ->
        Printf.printf "%s latency tail: p%g = %.3f ms over %d samples\n" label
          p v n
      | None ->
        Printf.printf "%s latency tail: fewer than 10 samples above the median (%d)\n"
          label (List.length (Harness.samples env c)))
    [ ("job", Harness.Job); ("hit", Harness.Hit) ];
  let t = env.Harness.tally in
  Printf.printf "operations: %d attempted, %d failed\n" t.Tally.attempted
    t.Tally.failed;
  List.iter (Printf.printf "  FAILED %s\n") (Tally.messages t);
  if trace then
    List.iter
      (fun (name, unit, v) -> Printf.printf "%-34s %14.4f %s\n" name v unit)
      (per_layer_values env o)
