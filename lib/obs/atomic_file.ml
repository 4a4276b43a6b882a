(* Temp file + rename, with devices and FIFOs written in place.  The
   temporary file sits in the target's directory, so the rename never
   crosses a filesystem, and its name is the target's basename, six
   random hex digits (the stdlib's domain-local PRNG) and [suffix]. *)

let suffix = ".tmp"

let is_temp name = Filename.check_suffix name suffix

(* Run [body], then [close_out], so that a failed final flush is
   reported.  On any exception the channel is closed without a word,
   which also frees the descriptor when [close_out] itself failed. *)
let fill oc body =
  match
    body oc;
    close_out oc
  with
  | () -> ()
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    close_out_noerr oc;
    Printexc.raise_with_backtrace e bt

(* An absent target, a regular file and a directory are replaced by
   the rename (which refuses a non-empty directory); anything else
   that exists is written through. *)
let in_place path =
  match Sys.is_regular_file path || Sys.is_directory path with
  | replaced -> not replaced
  | exception Sys_error _ -> false

(* The file a replacing write renames onto: the one a symbolic link
   leads to, so that the link stays; a dangling link is itself
   replaced. *)
let target path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_LNK; _ } -> (
    try Unix.realpath path with Unix.Unix_error _ -> path)
  | _ | (exception Unix.Unix_error _) -> path

let write path body =
  if in_place path then fill (open_out_bin path) body
  else
    let path = target path in
    let tmp, oc =
      Filename.open_temp_file ~mode:[ Open_binary ] ~perms:0o666
        ~temp_dir:(Filename.dirname path) (Filename.basename path) suffix
    in
    let discard () = try Sys.remove tmp with Sys_error _ -> () in
    match fill oc body with
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      discard ();
      Printexc.raise_with_backtrace e bt
    | () -> (
      try Sys.rename tmp path
      with Sys_error msg ->
        discard ();
        (* rename(2)'s message names neither file *)
        raise (Sys_error (path ^ ": " ^ msg)))
