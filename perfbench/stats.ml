(* Order statistics over float samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks; [p] in [0, 100]. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let r = p /. 100. *. float_of_int (n - 1) in
    let i = truncate r in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = percentile xs 50.

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] gives them
   (the default "exclusive" method), so the spreads printed here are
   the ones an external checker computes. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then
    let v = if n = 1 then a.(0) else nan in
    (v, v, v)
  else
    let m = n + 1 in
    let q i =
      let j = i * m / 4 and delta = (i * m) mod 4 in
      let lo = a.(max 0 (min (n - 1) (j - 1))) and hi = a.(min (n - 1) j) in
      ((lo *. float_of_int (4 - delta)) +. (hi *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

let min_max xs =
  List.fold_left (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (infinity, neg_infinity) xs

(* The reporting rule for latency tails: the highest percentile of the
   ladder that still has at least 10 samples strictly above its
   interpolation point, so a tail figure is never one unlucky sample.
   Returns the percentile, its value and the sample count, or [None]
   when even the median lacks 10 samples above it. *)
let ladder = [ 50.; 75.; 90.; 95.; 99.; 99.9 ]

let samples_above n p =
  let r = p /. 100. *. float_of_int (n - 1) in
  n - 1 - truncate (r +. 1e-9)

let tail xs =
  let n = List.length xs in
  List.fold_left
    (fun best p ->
      if samples_above n p >= 10 then Some (p, percentile xs p, n) else best)
    None ladder
