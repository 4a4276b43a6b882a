type arg =
  | I of int
  | F of float
  | S of string

type kind =
  | Instant
  | Begin
  | End
  | Sample

type event = {
  ts : int;
  name : string;
  cat : string;
  kind : kind;
  args : (string * arg) list;
}

type timeline = {
  mutable clock : unit -> int;
  mutable events : event array;
  mutable len : int;
  mutable seq : int;
}

let dummy_event = { ts = 0; name = ""; cat = ""; kind = Instant; args = [] }

let create () =
  let t = { clock = (fun () -> 0); events = Array.make 64 dummy_event; len = 0; seq = 0 } in
  t.clock <-
    (fun () ->
      t.seq <- t.seq + 1;
      t.seq);
  t

let set_clock t clock = t.clock <- clock
let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Obs.Events.get";
  t.events.(i)

let events t = Array.to_list (Array.sub t.events 0 t.len)

let iter t f =
  for i = 0 to t.len - 1 do
    f t.events.(i)
  done

let emit t ?ts ?(cat = "") ?(args = []) kind name =
  let ts = match ts with Some ts -> ts | None -> t.clock () in
  if t.len = Array.length t.events then begin
    let bigger = Array.make (2 * t.len) dummy_event in
    Array.blit t.events 0 bigger 0 t.len;
    t.events <- bigger
  end;
  t.events.(t.len) <- { ts; name; cat; kind; args };
  t.len <- t.len + 1

let instant t ?ts ?cat ?args name = emit t ?ts ?cat ?args Instant name
let span_begin t ?ts ?cat ?args name = emit t ?ts ?cat ?args Begin name
let span_end t ?ts ?cat ?args name = emit t ?ts ?cat ?args End name
let sample t ?ts ?cat ?args name = emit t ?ts ?cat ?args Sample name

(* --- JSONL ------------------------------------------------------------- *)

let kind_to_string = function
  | Instant -> "instant"
  | Begin -> "begin"
  | End -> "end"
  | Sample -> "sample"

let kind_of_string = function
  | "instant" -> Some Instant
  | "begin" -> Some Begin
  | "end" -> Some End
  | "sample" -> Some Sample
  | _ -> None

let arg_to_json = function
  | I i -> Json.Int i
  | F f -> Json.Float f
  | S s -> Json.Str s

let arg_of_json = function
  | Json.Int i -> Some (I i)
  | Json.Float f -> Some (F f)
  | Json.Str s -> Some (S s)
  | Json.Null | Json.Bool _ | Json.List _ | Json.Obj _ -> None

let event_to_json e =
  let base =
    [ ("ts", Json.Int e.ts);
      ("name", Json.Str e.name);
      ("kind", Json.Str (kind_to_string e.kind))
    ]
  in
  let base = if e.cat = "" then base else base @ [ ("cat", Json.Str e.cat) ] in
  let base =
    if e.args = [] then base
    else base @ [ ("args", Json.Obj (List.map (fun (k, a) -> (k, arg_to_json a)) e.args)) ]
  in
  Json.Obj base

let event_of_json j =
  let ( let* ) o f = match o with Some v -> f v | None -> Error "malformed event" in
  let* ts = Option.bind (Json.member "ts" j) Json.to_int in
  let* name = Option.bind (Json.member "name" j) Json.to_str in
  let* kind =
    Option.bind (Option.bind (Json.member "kind" j) Json.to_str) kind_of_string
  in
  let cat =
    match Option.bind (Json.member "cat" j) Json.to_str with
    | Some c -> c
    | None -> ""
  in
  match Json.member "args" j with
  | None -> Ok { ts; name; cat; kind; args = [] }
  | Some (Json.Obj fields) ->
    let rec convert acc = function
      | [] -> Ok { ts; name; cat; kind; args = List.rev acc }
      | (k, v) :: rest -> (
        match arg_of_json v with
        | Some a -> convert ((k, a) :: acc) rest
        | None -> Error (Printf.sprintf "malformed arg %S" k))
    in
    convert [] fields
  | Some _ -> Error "malformed args"

let to_jsonl_buffer t buf =
  iter t (fun e ->
      Json.to_buffer buf (event_to_json e);
      Buffer.add_char buf '\n')

let to_jsonl_string t =
  let buf = Buffer.create (256 * (1 + t.len)) in
  to_jsonl_buffer t buf;
  Buffer.contents buf

let of_jsonl_string s =
  let lines = String.split_on_char '\n' s in
  let rec loop acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      let line = String.trim line in
      if line = "" then loop acc (lineno + 1) rest
      else (
        match Json.of_string line with
        | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
        | Ok j -> (
          match event_of_json j with
          | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
          | Ok e -> loop (e :: acc) (lineno + 1) rest))
  in
  loop [] 1 lines

(* --- Chrome trace-event format ----------------------------------------
   The "JSON object format" understood by chrome://tracing and
   Perfetto: {"traceEvents": [...]}.  Timestamps are microseconds; we
   publish the timeline's logical clock (simulated instructions)
   one-to-one, which Perfetto renders fine. *)

let chrome_event e =
  let ph, extra =
    match e.kind with
    | Begin -> ("B", [])
    | End -> ("E", [])
    | Instant -> ("i", [ ("s", Json.Str "t") ])
    | Sample -> ("C", [])
  in
  let args =
    match e.args with
    | [] -> []
    | args -> [ ("args", Json.Obj (List.map (fun (k, a) -> (k, arg_to_json a)) args)) ]
  in
  Json.Obj
    ([ ("name", Json.Str e.name);
       ("cat", Json.Str (if e.cat = "" then "repro" else e.cat));
       ("ph", Json.Str ph);
       ("ts", Json.Int e.ts);
       ("pid", Json.Int 1);
       ("tid", Json.Int 1)
     ]
     @ extra @ args)

let to_chrome_trace t =
  let evs = ref [] in
  iter t (fun e -> evs := chrome_event e :: !evs);
  Json.Obj
    [ ("traceEvents", Json.List (List.rev !evs));
      ("displayTimeUnit", Json.Str "ns")
    ]

let write_chrome_trace t path =
  Atomic_file.write path (fun oc ->
      output_string oc (Json.to_string (to_chrome_trace t)))
