exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* --- Building ----------------------------------------------------------- *)

let field key body = Sexp.Datum.list (Sexp.Datum.sym key :: body)
let int key n = field key [ Sexp.Datum.Int n ]
let str key s = field key [ Sexp.Datum.Str s ]
let real key x = field key [ Sexp.Datum.Real x ]
let int_list key ns = field key (List.map (fun n -> Sexp.Datum.Int n) ns)

(* --- Destructuring ------------------------------------------------------ *)

let fields ~file ~tag d =
  match Sexp.Datum.list_opt d with
  | Some (Sexp.Datum.Sym head :: body) when head = tag ->
    List.map
      (fun f ->
        match Sexp.Datum.list_opt f with
        | Some (Sexp.Datum.Sym key :: rest) -> (key, rest)
        | Some _ | None ->
          fail "%s: expected a (key value ...) field in (%s ...), got %s" file
            tag (Sexp.Datum.to_string f))
      body
  | Some (Sexp.Datum.Sym head :: _) ->
    fail "%s: expected a (%s ...) form, got (%s ...)" file tag head
  | Some _ | None ->
    fail "%s: expected a (%s ...) form, got %s" file tag
      (Sexp.Datum.to_string d)

let get_opt fields key =
  List.assoc_opt key fields

let get ~file fields key =
  match get_opt fields key with
  | Some v -> v
  | None -> fail "%s: missing field (%s ...)" file key

let one ~file key = function
  | [ v ] -> v
  | vs -> fail "%s: field (%s ...) wants one value, has %d" file key (List.length vs)

let get_int ~file fields key =
  match one ~file key (get ~file fields key) with
  | Sexp.Datum.Int n -> n
  | d -> fail "%s: field (%s %s) is not an integer" file key (Sexp.Datum.to_string d)

let get_str ~file fields key =
  match one ~file key (get ~file fields key) with
  | Sexp.Datum.Str s -> s
  | Sexp.Datum.Sym s -> s
  | d -> fail "%s: field (%s %s) is not a string" file key (Sexp.Datum.to_string d)

let get_real ~file fields key =
  match one ~file key (get ~file fields key) with
  | Sexp.Datum.Real x -> x
  | Sexp.Datum.Int n -> float_of_int n
  | d -> fail "%s: field (%s %s) is not a number" file key (Sexp.Datum.to_string d)

let get_int_list ~file fields key =
  List.map
    (function
      | Sexp.Datum.Int n -> n
      | d ->
        fail "%s: field (%s ...) holds non-integer %s" file key
          (Sexp.Datum.to_string d))
    (get ~file fields key)

(* --- Files -------------------------------------------------------------- *)

let write_file path ~header d =
  Obs.Atomic_file.write path (fun oc ->
      output_string oc (";; " ^ header ^ "\n");
      output_string oc (Sexp.Datum.to_string d);
      output_char oc '\n')

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> fail "%s: %s" path msg
  | src -> (
    match Sexp.Parser.parse_one ~filename:path src with
    | d -> d
    | exception Sexp.Parser.Error (msg, pos) ->
      fail "%s:%d: %s" path pos.Sexp.Lexer.line msg)
