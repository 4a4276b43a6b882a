type processor =
  | Slow
  | Fast

let all_processors = [ Slow; Fast ]

let cycle_ns = function
  | Slow -> 30.0
  | Fast -> 2.0

let address_setup_ns = 30.0
let access_ns = 180.0
let transfer_ns_per_16b = 30.0

let penalty_ns ~block_bytes =
  if block_bytes <= 0 then invalid_arg "Timing.penalty_ns";
  let transfers = (block_bytes + 15) / 16 in
  address_setup_ns +. access_ns +. (transfer_ns_per_16b *. float_of_int transfers)

let miss_penalty p ~block_bytes = penalty_ns ~block_bytes /. cycle_ns p

let writeback_penalty p ~block_bytes =
  if block_bytes <= 0 then invalid_arg "Timing.writeback_penalty";
  let transfers = (block_bytes + 15) / 16 in
  transfer_ns_per_16b *. float_of_int transfers /. cycle_ns p

let miss_penalty_cycles p ~block_bytes =
  int_of_float (Float.round (miss_penalty p ~block_bytes))

let cache_overhead p ~block_bytes ~fetches ~instructions =
  if instructions <= 0 then invalid_arg "Timing.cache_overhead";
  float_of_int fetches *. miss_penalty p ~block_bytes /. float_of_int instructions

let pp_processor ppf p =
  Format.pp_print_string ppf
    (match p with
     | Slow -> "slow"
     | Fast -> "fast")
