(* What the host is, what a process costs it, and its files. *)

(* Peak resident set ([VmHWM]) of a process, in kB; 0 if unreadable. *)
let vm_hwm_kb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0
  | text ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | n :: _ -> Option.value ~default:acc (int_of_string_opt n)
          | [] -> acc)
        | _ -> acc)
      0
      (String.split_on_char '\n' text)

let self_hwm_kb () = vm_hwm_kb "self"

(* The CPUs this process may run on, as the kernel lists them. *)
let cpus_allowed () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> "?"
  | text ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "Cpus_allowed_list"; v ] -> String.trim v
        | _ -> acc)
      "?"
      (String.split_on_char '\n' text)

let nproc () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | exception Sys_error _ -> 0
  | text ->
    List.length
      (List.filter
         (fun l -> String.length l >= 9 && String.sub l 0 9 = "processor")
         (String.split_on_char '\n' text))

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
