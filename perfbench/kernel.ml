(* The frozen reference kernel that drift normalization divides by.

   It depends on no repository library, so no change to the program
   under test can change it.  Half of it is a dependent ALU loop
   (xorshift), half is a dependent pointer chase through a single
   random cycle over a 64 MB buffer, far beyond the private caches, so
   it sees both the host's core speed and its memory latency — the two
   things a noisy neighbour takes away from the simulator.

   [words], [alu_iters] and [chase_steps] are frozen with the
   benchmark, and so is [k_nominal]: changing any of them changes every
   normalized number. *)

open Bigarray

type t = {
  ring : (int, int_elt, c_layout) Array1.t;
  mutable cursor : int;
  mutable sink : int;
}

let words = 8 * 1024 * 1024 (* 64 MB of 8-byte slots *)
let alu_iters = 6_000_000
let chase_steps = 165_000

(* Median kernel time on the reference host (2-vCPU Firecracker VM,
   Linux 6.x, OCaml 5.1.1), frozen.  A normalized time is in units of
   "seconds on that host at the speed it had when this was frozen". *)
let k_nominal = 0.050

let xorshift x =
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  x lxor (x lsl 17)

(* Sattolo's algorithm: a uniformly random single cycle, so the chase
   visits every slot before repeating and no prefetcher can follow it.
   The seed is fixed: the kernel is the same in every run. *)
let create () =
  let ring = Array1.create int c_layout words in
  for i = 0 to words - 1 do
    Array1.unsafe_set ring i i
  done;
  let st = ref 0x2545F4914F6CDD1D in
  for i = words - 1 downto 1 do
    st := xorshift !st;
    let j = (!st land max_int) mod i in
    let a = Array1.unsafe_get ring i in
    Array1.unsafe_set ring i (Array1.unsafe_get ring j);
    Array1.unsafe_set ring j a
  done;
  { ring; cursor = 0; sink = 1 }

let run t =
  let x = ref (t.sink lor 1) in
  for _ = 1 to alu_iters do
    x := xorshift !x
  done;
  let p = ref t.cursor in
  let ring = t.ring in
  for _ = 1 to chase_steps do
    p := Array1.unsafe_get ring !p
  done;
  t.cursor <- !p;
  t.sink <- !x lxor !p
