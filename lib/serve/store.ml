(* The daemon's on-disk spool:

     <dir>/journal.jsonl       append-only event journal (crash recovery)
     <dir>/results/<hash>.sexp fixture per manifest content hash
     <dir>/ckpt/job-<id>.ckpt  sweep checkpoint of a running job

   The journal is opened in append mode and flushed after every event,
   so the tail a crashed daemon leaves behind is at worst one torn
   line; [read_journal] skips lines that do not parse.  Results are
   written atomically by Fixture.save (temp + rename), so a reader
   never sees a half-written fixture.

   Stored results are immutable, so the store indexes each one in
   memory the first time it writes or reads it: a cache hit is a
   table lookup, not a file read and a parse.  The index has its own
   lock so that a hit never waits on a journal flush. *)

type stored = {
  fixture : Golden.Fixture.t;
  text : string;
}

type t = {
  dir : string;
  journal : out_channel;
  writer : Obs.Jsonl.t;
  mutex : Mutex.t;  (* the journal *)
  index : (string, stored) Hashtbl.t;
  index_mutex : Mutex.t;
}

let ensure_dir path =
  if not (Sys.file_exists path) then Unix.mkdir path 0o755

let journal_path dir = Filename.concat dir "journal.jsonl"
let results_dir dir = Filename.concat dir "results"
let ckpt_dir dir = Filename.concat dir "ckpt"

let create dir =
  ensure_dir dir;
  ensure_dir (results_dir dir);
  ensure_dir (ckpt_dir dir);
  let journal =
    open_out_gen [ Open_append; Open_creat ] 0o644 (journal_path dir)
  in
  { dir;
    journal;
    writer = Obs.Jsonl.to_channel journal;
    mutex = Mutex.create ();
    index = Hashtbl.create 64;
    index_mutex = Mutex.create ()
  }

let append t event =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      Obs.Jsonl.write t.writer event;
      Obs.Jsonl.flush t.writer;
      flush t.journal)

let read_journal dir =
  let path = journal_path dir in
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let events = ref [] in
        (try
           while true do
             let line = input_line ic in
             if String.trim line <> "" then
               match Obs.Json.of_string line with
               | Ok json -> events := json :: !events
               | Error _ -> () (* torn tail of a crashed daemon *)
           done
         with End_of_file -> ());
        List.rev !events)
  end

let result_path t hash = Filename.concat (results_dir t.dir) (hash ^ ".sexp")

let indexed t hash =
  Mutex.lock t.index_mutex;
  let found = Hashtbl.find_opt t.index hash in
  Mutex.unlock t.index_mutex;
  found

(* File [fixture] under [hash] unless a concurrent caller got there
   first; either way every caller sees the one entry the index keeps. *)
let index t hash fixture =
  let fresh =
    { fixture; text = Sexp.Datum.to_string (Golden.Fixture.to_datum fixture) }
  in
  Mutex.lock t.index_mutex;
  let kept =
    match Hashtbl.find_opt t.index hash with
    | Some e -> e
    | None ->
      Hashtbl.add t.index hash fresh;
      fresh
  in
  Mutex.unlock t.index_mutex;
  kept

let lookup t hash =
  match indexed t hash with
  | Some _ as hit -> hit
  | None -> (
    let path = result_path t hash in
    if not (Sys.file_exists path) then None
    else
      match Golden.Fixture.load path with
      | fx -> Some (index t hash fx)
      | exception Golden.Sx.Parse_error _ -> None)

let put t fixture =
  let hash = Golden.Manifest.content_hash fixture.Golden.Fixture.run in
  Golden.Fixture.save fixture (result_path t hash);
  ignore (index t hash fixture)

let checkpoint_path t ~id =
  Filename.concat (ckpt_dir t.dir) (Printf.sprintf "job-%d.ckpt" id)

let remove_checkpoint t ~id =
  let path = checkpoint_path t ~id in
  if Sys.file_exists path then Sys.remove path

let close t =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      Obs.Jsonl.close t.writer;
      close_out_noerr t.journal)
