let parse_size str =
  let s = String.trim str in
  let len = String.length s in
  if len = 0 then Error "empty size"
  else
    let mult =
      match s.[len - 1] with
      | 'k' | 'K' -> 1024
      | 'm' | 'M' -> 1024 * 1024
      | 'g' | 'G' -> 1024 * 1024 * 1024
      | _ -> 1
    in
    let digits = if mult = 1 then s else String.sub s 0 (len - 1) in
    if digits = "" then Error (Printf.sprintf "no digits in size %S" str)
    else if not (String.for_all (fun c -> c >= '0' && c <= '9') digits) then
      Error
        (Printf.sprintf
           "invalid size %S (expected digits with an optional k/m/g suffix)"
           str)
    else
      match int_of_string_opt digits with
      | None -> Error (Printf.sprintf "size %S is out of range" str)
      | Some n ->
        if n = 0 then Error (Printf.sprintf "size must be positive: %S" str)
        else if n > max_int / mult then
          Error (Printf.sprintf "size %S overflows the native integer" str)
        else Ok (n * mult)

let parse_count str =
  let s = String.trim str in
  match int_of_string_opt s with
  | Some n
    when n >= 1 && String.for_all (fun c -> c >= '0' && c <= '9') s ->
    Ok n
  | Some _ | None -> Error (Printf.sprintf "%S is not a positive integer" str)

let format_size n =
  let k = 1024 in
  let m = 1024 * 1024 in
  if n >= m && n mod m = 0 then Printf.sprintf "%dm" (n / m)
  else if n >= k && n mod k = 0 then Printf.sprintf "%dk" (n / k)
  else string_of_int n

(* Collector specs share the CLI's textual syntax so manifests, golden
   fixtures and the repro command line all round-trip the same
   strings. *)
let parse_gc s =
  let ( let* ) = Result.bind in
  match String.split_on_char ':' (String.trim s) with
  | [ "none" ] -> Ok Vscheme.Machine.No_gc
  | [ "cheney"; semi ] ->
    let* semispace_bytes = parse_size semi in
    Ok (Vscheme.Machine.Cheney { semispace_bytes })
  | [ "marksweep"; nursery; old ] | [ "ms"; nursery; old ] ->
    let* nursery_bytes = parse_size nursery in
    let* old_bytes = parse_size old in
    Ok (Vscheme.Machine.Mark_sweep { nursery_bytes; old_bytes })
  | [ "gen"; nursery; old ] ->
    let* nursery_bytes = parse_size nursery in
    let* old_bytes = parse_size old in
    Ok (Vscheme.Machine.Generational { nursery_bytes; old_bytes })
  | _ ->
    Error
      (Printf.sprintf
         "bad collector %S (none | cheney:SIZE | gen:NURSERY:OLD | \
          marksweep:NURSERY:OLD)" s)

(* Hierarchy presets share the same convention: the CLI token is the
   CPU label the presets are keyed by. *)
let parse_hier s =
  match Memsim.Hier.cpu_of_label (String.trim s) with
  | Some cpu -> Ok cpu
  | None ->
    Error
      (Printf.sprintf "bad hierarchy %S (expected one of %s)" s
         (String.concat " | "
            (List.map Memsim.Hier.cpu_label Memsim.Hier.all_cpus)))

let format_hier = Memsim.Hier.cpu_label

let format_gc = function
  | Vscheme.Machine.No_gc -> "none"
  | Vscheme.Machine.Cheney { semispace_bytes } ->
    Printf.sprintf "cheney:%s" (format_size semispace_bytes)
  | Vscheme.Machine.Generational { nursery_bytes; old_bytes } ->
    Printf.sprintf "gen:%s:%s" (format_size nursery_bytes)
      (format_size old_bytes)
  | Vscheme.Machine.Mark_sweep { nursery_bytes; old_bytes } ->
    Printf.sprintf "marksweep:%s:%s" (format_size nursery_bytes)
      (format_size old_bytes)
