(* The socket front end: a Unix-domain listener accepting
   length-prefixed JSON requests, one systhread per connection.
   Domains do the sweeping; threads only shuffle frames, so a blocked
   client never costs a core.  Only a connection's own thread writes
   to its socket, one reply per request. *)

type t = {
  sched : Sched.t;
  socket_path : string;
  listen_fd : Unix.file_descr;
  mutex : Mutex.t;
  mutable shutdown_requested : bool option; (* Some drain *)
}

let listen_unix path =
  if Sys.file_exists path then Sys.remove path;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let create ~socket sched =
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
   | _ -> ()
   | exception Invalid_argument _ -> () (* not on this platform *));
  { sched;
    socket_path = socket;
    listen_fd = listen_unix socket;
    mutex = Mutex.create ();
    shutdown_requested = None
  }

let request_shutdown t ~drain =
  Mutex.lock t.mutex;
  if t.shutdown_requested = None then t.shutdown_requested <- Some drain;
  Mutex.unlock t.mutex

let shutdown_state t =
  Mutex.lock t.mutex;
  let s = t.shutdown_requested in
  Mutex.unlock t.mutex;
  s

let fields_of = function
  | Obs.Json.Obj fields -> fields
  | json -> [ ("value", json) ]

let handle_request t ~write req =
  match (req : Proto.request) with
  | Proto.Ping ->
    write (Proto.ok_reply [ ("pong", Obs.Json.Bool true) ]);
    `Continue
  | Proto.Submit { run_text; wait } ->
    (match Sched.submit t.sched run_text with
     | Error msg -> write (Proto.error_reply msg)
     | Ok id ->
       if wait then
         match Sched.wait t.sched id with
         | Ok snapshot -> write (Proto.ok_reply (fields_of snapshot))
         | Error msg -> write (Proto.error_reply ~job:id msg)
       else
         match Sched.job_json t.sched id with
         | Ok snapshot -> write (Proto.ok_reply (fields_of snapshot))
         | Error msg -> write (Proto.error_reply ~job:id msg));
    `Continue
  | Proto.Status id ->
    (match Sched.job_json t.sched id with
     | Ok snapshot -> write (Proto.ok_reply (fields_of snapshot))
     | Error msg -> write (Proto.error_reply ~job:id msg));
    `Continue
  | Proto.Result id ->
    (match Sched.result t.sched id with
     | Ok fx ->
       write
         (Proto.ok_reply
            [ ("job", Obs.Json.Int id);
              ( "fixture",
                Obs.Json.Str (Sexp.Datum.to_string (Golden.Fixture.to_datum fx))
              )
            ])
     | Error msg -> write (Proto.error_reply ~job:id msg));
    `Continue
  | Proto.Cancel id ->
    (match Sched.cancel t.sched id with
     | Ok status ->
       write
         (Proto.ok_reply
            [ ("job", Obs.Json.Int id); ("status", Obs.Json.Str status) ])
     | Error msg -> write (Proto.error_reply ~job:id msg));
    `Continue
  | Proto.Stats ->
    write (Proto.ok_reply (fields_of (Sched.stats t.sched)));
    `Continue
  | Proto.Shutdown { drain } ->
    write
      (Proto.ok_reply
         [ ("shutting_down", Obs.Json.Bool true);
           ("drain", Obs.Json.Bool drain)
         ]);
    request_shutdown t ~drain;
    `Close

let handle_connection t fd =
  let write = Proto.write_frame fd in
  (try
     let rec loop () =
       match Proto.read_frame fd with
       | Error `Closed -> ()
       | Error (`Error msg) ->
         (* Framing is gone; answer once and hang up. *)
         (try write (Proto.error_reply ("bad frame: " ^ msg))
          with Proto.Closed | Unix.Unix_error _ -> ())
       | Ok json -> (
         match Proto.request_of_json json with
         | Error msg ->
           write (Proto.error_reply msg);
           loop ()
         | Ok req -> (
           match handle_request t ~write req with
           | `Continue -> loop ()
           | `Close -> ()))
     in
     loop ()
   with Proto.Closed | Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Accept with a short select timeout so a shutdown requested on a
   connection thread is noticed without closing fds out from under a
   blocked accept. *)
let run t =
  let rec loop () =
    match shutdown_state t with
    | Some drain ->
      (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
      (try Sys.remove t.socket_path with Sys_error _ -> ());
      Sched.shutdown ~drain t.sched
    | None ->
      (match Unix.select [ t.listen_fd ] [] [] 0.2 with
       | [], _, _ -> ()
       | _ -> (
         match Unix.accept t.listen_fd with
         | fd, _ ->
           ignore (Thread.create (fun () -> handle_connection t fd) ())
         | exception Unix.Unix_error _ -> ())
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
  in
  loop ()
