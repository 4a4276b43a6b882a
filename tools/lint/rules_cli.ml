(* lint.cli-untested: every command and flag a Cmdliner program
   declares is invoked somewhere that runs it — a test script, a
   Makefile target, a CI step or a benchmark — or it is deleted.

   Declarations come from the program's Parsetree:

   - a command is a [Cmd.info "name"] literal.  One that sits in a
     top-level binding which also builds a [Cmd.group (Cmd.info "g")]
     is the subcommand [g name]; the info named after the program
     itself is the root and needs no invocation;
   - a flag is every name of an [info [ "name"; "n" ]] literal: a
     one-letter name is the short flag [-n], any other the long
     [--name].

   Invocations are command lines split into tokens (runs of letters,
   digits and [_.-]): the logical, non-comment lines of scripts, and
   the list and array literals of OCaml programs.  A token that is the
   program's name, with or without [.exe], starts an invocation: the
   tokens after it, past any [--].  The command [a b] is invoked when
   an invocation starts with [a b], and a flag when an invocation holds
   it, so neither [grep -e] nor another program's own [--trace] is a
   use of the program's flag. *)

type decl = {
  ident : string;  (** "client status" or "--heap" *)
  path : string list;  (** a command's words; [] for a flag *)
  loc : Location.t;
}

let rec is_prefix path l =
  match (path, l) with
  | [], _ -> true
  | p :: ps, t :: ts -> String.equal p t && is_prefix ps ts
  | _ :: _, [] -> false

let ends_with ~suffix l = is_prefix (List.rev suffix) (List.rev l)

let string_literal (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_constant (Parsetree.Pconst_string (s, _, _)) -> Some s
  | _ -> None

(* The elements of a list or array literal, if [e] is one. *)
let rec elements (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_array es -> Some es
  | Parsetree.Pexp_construct ({ txt = Longident.Lident "[]"; _ }, None) ->
    Some []
  | Parsetree.Pexp_construct
      ( { txt = Longident.Lident "::"; _ },
        Some { pexp_desc = Parsetree.Pexp_tuple [ hd; tl ]; _ } ) ->
    Option.map (fun rest -> hd :: rest) (elements tl)
  | _ -> None

(* The strings of a list literal [[ "a"; "b" ]], if it is one. *)
let string_list e =
  Option.bind (elements e) (fun es ->
      let ss = List.filter_map string_literal es in
      if List.compare_lengths ss es = 0 then Some ss else None)

(* [f arg ...] where [f]'s path ends in [suffix]: the first unlabelled
   argument. *)
let first_arg ~suffix (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_apply ({ pexp_desc = Parsetree.Pexp_ident lid; _ }, args)
    when ends_with ~suffix (Rules_ast.flatten lid.Asttypes.txt) ->
    List.find_map
      (function Asttypes.Nolabel, a -> Some a | _ -> None)
      args
  | _ -> None

let cmd_info e =
  Option.bind (first_arg ~suffix:[ "Cmd"; "info" ] e) string_literal

let flag_name n = if String.length n = 1 then "-" ^ n else "--" ^ n

(* Every command and flag [str] declares, each once, at its first
   declaration. *)
let declarations ~program (str : Parsetree.structure) =
  let binding (vb : Parsetree.value_binding) =
    let infos = ref [] and groups = ref [] and flags = ref [] in
    let expr sub (e : Parsetree.expression) =
      (match cmd_info e with
       | Some name -> infos := (name, e.Parsetree.pexp_loc) :: !infos
       | None -> ());
      (match Option.bind (first_arg ~suffix:[ "Cmd"; "group" ] e) cmd_info with
       | Some name -> groups := name :: !groups
       | None -> ());
      (match Option.bind (first_arg ~suffix:[ "info" ] e) string_list with
       | Some names ->
         List.iter
           (fun n -> flags := (flag_name n, e.Parsetree.pexp_loc) :: !flags)
           names
       | None -> ());
      Ast_iterator.default_iterator.expr sub e
    in
    let it = { Ast_iterator.default_iterator with expr } in
    it.expr it vb.Parsetree.pvb_expr;
    let group =
      List.find_opt (fun g -> not (String.equal g program)) !groups
    in
    let commands =
      List.filter_map
        (fun (name, loc) ->
          if String.equal name program then None
          else
            let path =
              match group with
              | Some g when not (String.equal g name) -> [ g; name ]
              | Some _ | None -> [ name ]
            in
            Some { ident = String.concat " " path; path; loc })
        (List.rev !infos)
    in
    commands
    @ List.rev_map (fun (ident, loc) -> { ident; path = []; loc }) !flags
  in
  let all =
    List.concat_map
      (fun (item : Parsetree.structure_item) ->
        match item.Parsetree.pstr_desc with
        | Parsetree.Pstr_value (_, vbs) -> List.concat_map binding vbs
        | _ -> [])
      str
  in
  let seen = Hashtbl.create 64 in
  List.filter
    (fun d ->
      if Hashtbl.mem seen d.ident then false
      else begin
        Hashtbl.add seen d.ident ();
        true
      end)
    all

(* --- invocations -------------------------------------------------------- *)

let is_token_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
  | _ -> false

let tokens line =
  let out = ref [] and start = ref (-1) in
  String.iteri
    (fun i c ->
      if is_token_char c then (if !start < 0 then start := i)
      else if !start >= 0 then begin
        out := String.sub line !start (i - !start) :: !out;
        start := -1
      end)
    line;
  if !start >= 0 then
    out := String.sub line !start (String.length line - !start) :: !out;
  List.rev !out

let is_program ~program t =
  String.equal t program || String.equal t (program ^ ".exe")

(* The word that ends the here-document a line opens ([cat <<'EOF'] or
   [<<-EOF] gives [EOF]), if it opens one. *)
let heredoc_end line =
  let rec find i =
    if i + 1 >= String.length line then None
    else if line.[i] = '<' && line.[i + 1] = '<' then
      match tokens (String.sub line (i + 2) (String.length line - i - 2)) with
      | w :: _ when w.[0] = '-' -> Some (String.sub w 1 (String.length w - 1))
      | w :: _ -> Some w
      | [] -> None
    else find (i + 1)
  in
  find 0

(* A script's logical lines, as token lists: a line that ends in a
   backslash goes on in the next one, and a line that starts with '#'
   is a comment, as is a here-document's text.  A shell function whose
   body runs the program ([run() { "$repro" "$@"; }]) wraps it: its
   name stands for the program, so [run nbody --hier skl] invokes
   [nbody --hier skl]. *)
let script_lines ~program path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let rec join acc cur doc = function
    | [] -> List.rev (cur :: acc)
    | l :: rest -> (
      let l = String.trim l in
      let n = String.length l in
      match doc with
      | Some word ->
        join acc cur (if String.equal l word then None else doc) rest
      | None ->
        if n > 0 && l.[0] = '#' then join acc cur None rest
        else if n > 0 && l.[n - 1] = '\\' then
          join acc (cur ^ " " ^ String.sub l 0 (n - 1)) None rest
        else
          let line = String.trim (cur ^ " " ^ l) in
          join (line :: acc) "" (heredoc_end line) rest)
  in
  let lines = join [] "" None (String.split_on_char '\n' text) in
  (* [name] of a line [name() {] that opens a shell function *)
  let opens l =
    if String.ends_with ~suffix:"() {" l then
      Some (String.trim (String.sub l 0 (String.length l - 4)))
    else None
  in
  let rec wrappers acc fn = function
    | [] -> acc
    | l :: rest -> (
      match fn with
      | None ->
        wrappers acc (Option.map (fun name -> (name, false)) (opens l)) rest
      | Some (name, runs) when String.equal l "}" ->
        wrappers (if runs then name :: acc else acc) None rest
      | Some (name, runs) ->
        let runs = runs || List.exists (is_program ~program) (tokens l) in
        wrappers acc (Some (name, runs)) rest)
  in
  let wrappers = wrappers [] None lines in
  List.map
    (fun l ->
      List.map (fun t -> if List.mem t wrappers then program else t) (tokens l))
    lines

(* An OCaml program's command lines: every list or array literal, as
   the tokens of its string literals and the names of its identifiers,
   so [[| repro; "serve"; "--workers"; "1" |]] invokes [serve
   --workers].  Any other element is an empty token, which names no
   command or flag. *)
let ocaml_lines (str : Parsetree.structure) =
  let lines = ref [] in
  let element_tokens (e : Parsetree.expression) =
    match (string_literal e, e.Parsetree.pexp_desc) with
    | Some s, _ -> tokens s
    | None, Parsetree.Pexp_ident lid -> [ Longident.last lid.Asttypes.txt ]
    | None, _ -> [ "" ]
  in
  let expr sub (e : Parsetree.expression) =
    Option.iter
      (fun es -> lines := List.concat_map element_tokens es :: !lines)
      (elements e);
    Ast_iterator.default_iterator.expr sub e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it str;
  List.rev !lines

(* For each token naming [program], the tokens after it (past any
   [--]): the command line it starts. *)
let invocations ~program toks =
  let rec past_dashes = function "--" :: rest -> past_dashes rest | l -> l in
  let rec go acc = function
    | [] -> acc
    | t :: rest ->
      go (if is_program ~program t then past_dashes rest :: acc else acc) rest
  in
  go [] toks

(* A command is used when an invocation starts with its words, a flag
   when an invocation holds it. *)
let used ~program lines d =
  List.exists
    (fun toks ->
      List.exists
        (fun call ->
          match d.path with
          | [] -> List.mem d.ident call
          | _ :: _ -> is_prefix d.path call)
        (invocations ~program toks))
    lines

(* --- the rule ---------------------------------------------------------- *)

(* The findings for the program parsed from [file] (its name is the
   file's basename), against the command lines of the [scripts] and of
   the parsed OCaml programs [ocaml] that invoke it. *)
let scan ~file ~scripts ~ocaml str =
  let program = Filename.remove_extension (Filename.basename file) in
  let lines =
    List.concat_map (script_lines ~program) scripts
    @ List.concat_map ocaml_lines ocaml
  in
  List.filter_map
    (fun d ->
      if used ~program lines d then None
      else
        let what =
          match d.path with
          | [] -> "flag " ^ d.ident
          | _ :: _ -> Printf.sprintf "command `%s %s'" program d.ident
        in
        Some
          { Rules_ast.ident = d.ident;
            f =
              Check.Finding.v ~rule:"lint.cli-untested" ~file
                ~where:(Rules_ast.pos_of_loc d.loc)
                (what
               ^ " is invoked by no test script, Makefile target, CI step \
                  or benchmark; test it or delete it")
          })
    (declarations ~program str)
