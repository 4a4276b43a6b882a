(* Human-readable byte counts: the geometry naming the sweep tables
   print ("64k/32b") and Recording's load diagnostics use.  Exact multiples
   print without a fraction; quarter-megabyte multiples print as a
   short decimal ("1.25m"); everything else falls back to bytes. *)

let pp ppf n =
  let k = 1024 in
  let m = 1024 * 1024 in
  if n >= m && n mod (m / 4) = 0 then
    if n mod m = 0 then Format.fprintf ppf "%dm" (n / m)
    else Format.fprintf ppf "%gm" (float_of_int n /. float_of_int m)
  else if n >= k && n mod k = 0 then Format.fprintf ppf "%dk" (n / k)
  else Format.fprintf ppf "%db" n

let to_string n = Format.asprintf "%a" pp n
