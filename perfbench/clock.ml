(* Monotonic host clock in seconds. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
