(* Length-prefixed JSON frames over a stream socket, and the request
   vocabulary of the serve daemon.

   A frame is a 4-byte big-endian payload length followed by that many
   bytes of JSON.  Length-prefixing (rather than newline-delimiting)
   keeps the framing independent of the payload: fixture sexps and
   error messages may span lines freely.  The frame cap bounds what a
   confused client can make the daemon allocate. *)

let max_frame_bytes = 16 * 1024 * 1024

exception Closed

(* --- Raw framing ------------------------------------------------------- *)

let really_write fd bytes off len =
  let pos = ref off in
  let remaining = ref len in
  while !remaining > 0 do
    let n = Unix.write fd bytes !pos !remaining in
    if n = 0 then raise Closed;
    pos := !pos + n;
    remaining := !remaining - n
  done

let really_read fd bytes off len =
  let pos = ref off in
  let remaining = ref len in
  while !remaining > 0 do
    let n = Unix.read fd bytes !pos !remaining in
    if n = 0 then raise Closed;
    pos := !pos + n;
    remaining := !remaining - n
  done

let write_frame fd json =
  let payload = Bytes.of_string (Obs.Json.to_string json) in
  let len = Bytes.length payload in
  if len > max_frame_bytes then
    invalid_arg
      (Printf.sprintf "Proto.write_frame: %d-byte payload exceeds the %d cap"
         len max_frame_bytes);
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int len);
  really_write fd hdr 0 4;
  really_write fd payload 0 len

let read_frame fd =
  let hdr = Bytes.create 4 in
  match really_read fd hdr 0 4 with
  | exception Closed -> Error `Closed
  | exception Unix.Unix_error (e, _, _) ->
    Error (`Error (Unix.error_message e))
  | () -> (
    let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
    if len < 0 || len > max_frame_bytes then
      Error
        (`Error
           (Printf.sprintf "frame length %d outside [0, %d]" len
              max_frame_bytes))
    else
      let payload = Bytes.create len in
      match really_read fd payload 0 len with
      | exception Closed -> Error `Closed
      | exception Unix.Unix_error (e, _, _) ->
        Error (`Error (Unix.error_message e))
      | () -> (
        match Obs.Json.of_string (Bytes.to_string payload) with
        | Ok json -> Ok json
        | Error msg -> Error (`Error ("unparseable frame: " ^ msg))))

(* --- Requests ----------------------------------------------------------- *)

type request =
  | Submit of { run_text : string; wait : bool }
  | Status of int
  | Result of int
  | Cancel of int
  | Stats
  | Shutdown of { drain : bool }
  | Ping

let request_to_json = function
  | Submit { run_text; wait } ->
    Obs.Json.Obj
      [ ("op", Obs.Json.Str "submit");
        ("run", Obs.Json.Str run_text);
        ("wait", Obs.Json.Bool wait)
      ]
  | Status id ->
    Obs.Json.Obj [ ("op", Obs.Json.Str "status"); ("job", Obs.Json.Int id) ]
  | Result id ->
    Obs.Json.Obj [ ("op", Obs.Json.Str "result"); ("job", Obs.Json.Int id) ]
  | Cancel id ->
    Obs.Json.Obj [ ("op", Obs.Json.Str "cancel"); ("job", Obs.Json.Int id) ]
  | Stats -> Obs.Json.Obj [ ("op", Obs.Json.Str "stats") ]
  | Shutdown { drain } ->
    Obs.Json.Obj
      [ ("op", Obs.Json.Str "shutdown"); ("drain", Obs.Json.Bool drain) ]
  | Ping -> Obs.Json.Obj [ ("op", Obs.Json.Str "ping") ]

let bool_member name ~default json =
  match Obs.Json.member name json with
  | Some (Obs.Json.Bool b) -> b
  | Some _ | None -> default

let int_member name json =
  match Obs.Json.member name json with
  | Some j -> Obs.Json.to_int j
  | None -> None

let request_of_json json =
  match Obs.Json.member "op" json with
  | None -> Error "request has no \"op\" field"
  | Some op -> (
    match Obs.Json.to_str op with
    | None -> Error "\"op\" is not a string"
    | Some op -> (
      let with_job k =
        match int_member "job" json with
        | Some id -> Ok (k id)
        | None -> Error (Printf.sprintf "%S needs an integer \"job\" field" op)
      in
      match op with
      | "submit" -> (
        match Obs.Json.member "run" json with
        | Some (Obs.Json.Str run_text) ->
          Ok (Submit { run_text; wait = bool_member "wait" ~default:false json })
        | Some _ | None -> Error "\"submit\" needs a string \"run\" field")
      | "status" -> with_job (fun id -> Status id)
      | "result" -> with_job (fun id -> Result id)
      | "cancel" -> with_job (fun id -> Cancel id)
      | "stats" -> Ok Stats
      | "shutdown" ->
        Ok (Shutdown { drain = bool_member "drain" ~default:true json })
      | "ping" -> Ok Ping
      | op -> Error (Printf.sprintf "unknown op %S" op)))

(* --- Replies ------------------------------------------------------------ *)

let ok_reply fields = Obs.Json.Obj (("ok", Obs.Json.Bool true) :: fields)

let error_reply ?job ?name msg =
  Obs.Json.Obj
    ([ ("ok", Obs.Json.Bool false); ("error", Obs.Json.Str msg) ]
     @ (match job with Some id -> [ ("job", Obs.Json.Int id) ] | None -> [])
     @ match name with Some n -> [ ("name", Obs.Json.Str n) ] | None -> [])
