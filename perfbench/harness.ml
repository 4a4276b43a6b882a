(* The run loop shared by every workload: timed set-up repetitions,
   passes of operations, per-operation drift normalization, output
   checks, latency samples and span accounting. *)

type cls = Job | Hit | Ping

type pass = {
  index : int;
  traced : bool;
  norm_s : float;   (** sum of the pass's normalized operation times *)
  raw_s : float;    (** the same operations in raw host seconds *)
}

type env = {
  meter : Meter.t;
  spans : Spans.t;
  tally : Tally.t;
  rng : Random.State.t;
  work_dir : string;
  expected_path : string;
  emit : bool;   (** record outputs instead of checking them *)
  mutable expected : Expected.t option;
  recorder : Expected.recorder;
  samples : (cls, float list) Hashtbl.t;   (** normalized ms *)
  raw_samples : (cls, float list) Hashtbl.t;  (** raw ms *)
  mutable next_op : int;
  mutable pass_norm : float;
  mutable pass_raw : float;
}

let create_env ~meter ~seed ~work_dir ~expected_path ~emit =
  { meter; spans = Spans.create (); tally = Tally.create ();
    rng = Random.State.make [| seed |]; work_dir;
    expected_path; emit; expected = None;
    recorder = Expected.recorder (); samples = Hashtbl.create 3;
    raw_samples = Hashtbl.create 3; next_op = 0; pass_norm = 0.;
    pass_raw = 0. }

let push tbl c v =
  Hashtbl.replace tbl c (v :: Option.value ~default:[] (Hashtbl.find_opt tbl c))

let samples env c = Option.value ~default:[] (Hashtbl.find_opt env.samples c)
let raw_samples env c =
  Option.value ~default:[] (Hashtbl.find_opt env.raw_samples c)

(* Compare an output with the committed expected value (and note it
   for [--emit-expected]). *)
let expect env key actual =
  Expected.note env.recorder key actual;
  match env.expected with
  | Some e -> Expected.check e key actual
  | None when env.emit -> Ok ()
  | None -> Error "expected outputs not loaded"

let all checks =
  List.fold_left
    (fun acc c -> match acc with Error _ -> acc | Ok () -> c ())
    (Ok ()) checks

let shuffle env l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int env.rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* One operation.  [f] runs timed between two kernel brackets and may
   report sub-request latencies through its [sample] argument (raw
   host seconds; they are normalized with the operation's factor).
   [whole] lists the latency classes the whole operation counts in.
   [check] verifies the output untimed, after the closing kernel; a
   failed check or an exception marks the operation failed. *)
let op env ~name ?(whole = []) f check =
  let id = env.next_op in
  env.next_op <- id + 1;
  let subs = ref [] in
  let sample c host_s = subs := (c, host_s) :: !subs in
  Spans.begin_op env.spans ~id ~name;
  let r, s = Meter.measure env.meter (fun () -> f sample) in
  let factor =
    Meter.factor ~k_nominal:env.meter.Meter.k_nominal ~k_before:s.Meter.k_before
      ~k_after:s.Meter.k_after
  in
  Spans.end_op env.spans ~factor;
  env.pass_norm <- env.pass_norm +. s.Meter.norm_s;
  env.pass_raw <- env.pass_raw +. s.Meter.host_s;
  let add c host =
    push env.samples c (host *. factor *. 1e3);
    push env.raw_samples c (host *. 1e3)
  in
  List.iter (fun c -> add c s.Meter.host_s) whole;
  List.iter (fun (c, h) -> add c h) (List.rev !subs);
  let outcome =
    match r with
    | Ok v -> (try check v with e -> Error (Printexc.to_string e))
    | Error e -> Error ("exception: " ^ Printexc.to_string e)
  in
  Tally.record env.tally ~what:(Printf.sprintf "op %d (%s)" id name) outcome

(* Set-up, repeated [setup_reps] times, each repetition timed like an
   operation; every repetition but the last is torn down untimed.
   The host's speed for this kind of code drifts over seconds, and
   the kernel does not follow it, so the repetitions spread over a
   second or two and [setup_s] is their median.
   The benchmark's own set-up — warming the kernel and reading the
   expected outputs — runs once before, untimed, so [setup_s] covers
   only the workload's [setup]: the program's own start-up. *)
let setup_reps = 25

let setup env ~setup ~teardown =
  env.meter.Meter.kernel ();
  if not env.emit then env.expected <- Some (Expected.load env.expected_path);
  let rec go i acc =
    let r, s = Meter.measure env.meter (fun () -> setup env) in
    match r with
    | Error e -> raise e
    | Ok st ->
      if i < setup_reps then begin
        teardown st;
        go (i + 1) (s :: acc)
      end
      else (st, List.rev (s :: acc))
  in
  go 1 []

(* The number of passes a run makes: [seconds] over the workload's
   nominal pass length, at least [min_passes].  It depends on the
   arguments only, never on the host's speed, because later passes
   can be faster than the first ones (memory already mapped, a warm
   daemon), so a speed-dependent count would move the medians. *)
let pass_count ~seconds ~nominal_pass_s ~min_passes =
  max min_passes (int_of_float (Float.round (seconds /. nominal_pass_s)))

(* Run [passes] passes.  With [trace], passes alternate traced and
   untraced (traced first), so one process measures the tracing
   overhead.  [rss ()] is read once, after the last pass. *)
let timed_phase env ~name ~passes ~trace ~rss ~pass =
  let run i =
    let traced = trace && i mod 2 = 0 in
    Spans.set_enabled env.spans traced;
    Gc.full_major ();
    env.pass_norm <- 0.;
    env.pass_raw <- 0.;
    Spans.with_workload env.spans ~name (fun () -> pass env i);
    { index = i; traced; norm_s = env.pass_norm; raw_s = env.pass_raw }
  in
  let ps = List.init passes run in
  Spans.set_enabled env.spans false;
  (ps, rss ())
