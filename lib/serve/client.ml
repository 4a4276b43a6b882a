(* Client side of the frame protocol: connect, then one request / one
   reply at a time. *)

type conn = { fd : Unix.file_descr }

let connect_unix path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> { fd }
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

let error_of_reply reply =
  let msg =
    match Obs.Json.member "error" reply with
    | Some (Obs.Json.Str m) -> m
    | Some _ | None -> "unknown error"
  in
  match Obs.Json.member "job" reply with
  | Some (Obs.Json.Int id) -> Printf.sprintf "job %d: %s" id msg
  | Some _ | None -> msg

let read_reply conn =
  match Proto.read_frame conn.fd with
  | Error `Closed -> Error "connection closed by the daemon"
  | Error (`Error msg) -> Error ("protocol error: " ^ msg)
  | Ok reply -> (
    match Obs.Json.member "ok" reply with
    | Some (Obs.Json.Bool true) -> Ok reply
    | Some (Obs.Json.Bool false) -> Error (error_of_reply reply)
    | Some _ | None -> Error ("malformed reply: " ^ Obs.Json.to_string reply))

let request conn req =
  match Proto.write_frame conn.fd (Proto.request_to_json req) with
  | () -> read_reply conn
  | exception Proto.Closed -> Error "connection closed by the daemon"
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let wait_ready ?(timeout_s = 10.0) path =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec attempt () =
    let ready =
      match connect_unix path with
      | conn ->
        let ok =
          match request conn Proto.Ping with Ok _ -> true | Error _ -> false
        in
        close conn;
        ok
      | exception (Unix.Unix_error _ | Sys_error _) -> false
    in
    if ready then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      ignore (Unix.select [] [] [] 0.05);
      attempt ()
    end
  in
  attempt ()
