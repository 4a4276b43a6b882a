type t = {
  file : string;
  ok : string option;
  fields : (string * Obs.Json.t) list;
  findings : Finding.t list;
}

let passed r = not (Finding.has_errors r.findings)

let print ppf rs =
  List.iter
    (fun r -> List.iter (Format.fprintf ppf "%a@." Finding.pp) r.findings)
    rs;
  List.iter
    (fun r ->
      if passed r then
        match r.ok with
        | Some s -> Format.fprintf ppf "%s: ok: %s@." r.file s
        | None -> Format.fprintf ppf "%s: ok@." r.file)
    rs

let to_json rs =
  let file r =
    Obs.Json.Obj
      ((("file", Obs.Json.Str r.file) :: r.fields)
       @ [ ("findings", Finding.list_to_json r.findings) ])
  in
  Obs.Json.Obj [ ("files", Obs.Json.List (List.map file rs)) ]
