(* Expected outputs committed beside the benchmark: one "key value"
   pair per line, '#' comments.  [--emit-expected] regenerates them
   from the current program; a deliberate behaviour change re-records
   them, anything else must match. *)

type t = (string, string) Hashtbl.t

let load path : t =
  let tbl = Hashtbl.create 64 in
  In_channel.with_open_text path (fun ic ->
    let rec loop () =
      match In_channel.input_line ic with
      | None -> ()
      | Some line ->
        let line = String.trim line in
        (if line <> "" && line.[0] <> '#' then
           match String.index_opt line ' ' with
           | Some i ->
             Hashtbl.replace tbl (String.sub line 0 i)
               (String.trim (String.sub line i (String.length line - i)))
           | None -> failwith (Printf.sprintf "%s: malformed line %S" path line));
        loop ()
    in
    loop ());
  tbl

let check (t : t) key actual =
  let expected = Option.value ~default:"<missing>" (Hashtbl.find_opt t key) in
  if expected = actual then Ok ()
  else Error (Printf.sprintf "%s: expected %s, got %s" key expected actual)

(* A recorder collects the first value seen for each key, for
   [--emit-expected]. *)
type recorder = { mutable rows : (string * string) list }

let recorder () = { rows = [] }

let note r key value =
  if not (List.mem_assoc key r.rows) then r.rows <- (key, value) :: r.rows

let save r ~header path =
  Out_channel.with_open_text path (fun oc ->
    Printf.fprintf oc "# %s\n" header;
    List.iter
      (fun (k, v) -> Printf.fprintf oc "%s %s\n" k v)
      (List.sort compare r.rows))
