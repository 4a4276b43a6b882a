(* Drift normalization.

   The reference kernel runs once before the first operation and once
   after every operation, never inside one.  An operation's normalized
   time is its host time scaled by [k_nominal / k_local], where
   [k_local] is the mean of the two kernel runs that bracket it: if
   the host is uniformly 30% slower for a while, the operation and the
   kernels around it are both 30% slower and the factor cancels it.

   The clock and the kernel are parameters so the arithmetic can be
   tested with a synthetic host. *)

let factor ~k_nominal ~k_before ~k_after =
  k_nominal /. ((k_before +. k_after) /. 2.)

type sample = {
  host_s : float;    (** the operation alone, raw host seconds *)
  k_before : float;
  k_after : float;
  norm_s : float;    (** [host_s] in reference-speed seconds *)
}

let normalize ~k_nominal ~k_before ~k_after host_s =
  { host_s; k_before; k_after;
    norm_s = host_s *. factor ~k_nominal ~k_before ~k_after }

type t = {
  clock : unit -> float;
  kernel : unit -> unit;
  k_nominal : float;
  mutable last_k : float option;
  mutable kernel_times : float list;  (** newest first *)
}

let create ~clock ~kernel ~k_nominal =
  { clock; kernel; k_nominal; last_k = None; kernel_times = [] }

let of_kernel k =
  create ~clock:Clock.now ~kernel:(fun () -> Kernel.run k)
    ~k_nominal:Kernel.k_nominal

let run_kernel t =
  let t0 = t.clock () in
  t.kernel ();
  let k = t.clock () -. t0 in
  t.kernel_times <- k :: t.kernel_times;
  t.last_k <- Some k;
  k

(* Time [f] alone, then run the kernel that closes its bracket (and
   opens the next one).  An exception from [f] is returned, not
   raised, so a failed operation still has its time measured. *)
let measure t f =
  let k_before =
    match t.last_k with Some k -> k | None -> run_kernel t
  in
  let t0 = t.clock () in
  let r = match f () with v -> Ok v | exception e -> Error e in
  let host_s = t.clock () -. t0 in
  let k_after = run_kernel t in
  (r, normalize ~k_nominal:t.k_nominal ~k_before ~k_after host_s)

let kernel_times t = List.rev t.kernel_times
