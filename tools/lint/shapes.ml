(* Project type-shape table, built from the Parsetree of every scanned
   source.  The typed rules classify a type by the head of its
   [Tconstr] path; for types defined in this repository the head alone
   says nothing, so this table records what each declaration looks
   like:

   - [Mutable]   — a record with a [mutable] field, or a manifest
                   alias of a mutable builtin (ref, array, bytes,
                   Buffer.t, Queue.t, Stack.t, Hashtbl.t);
   - [Immediate] — a variant of constant constructors only (unboxed at
                   runtime, safe under polymorphic comparison);
   - [Alias]     — a manifest alias of another named type, resolved at
                   lookup with a small depth bound;
   - [Other]     — everything else (immutable records, boxed variants,
                   abstract rows): not flagged by any rule.

   Keys are dotted paths from the file's module name plus any nested
   [module X = struct] context, e.g. ["Metrics.Histogram.t"]; lookups
   try the normalized full path, then its shorter suffixes, so both
   ["Obs__Metrics.Histogram.t"] and ["Histogram.t"] resolve. *)

type shape =
  | Mutable of string  (* why: the field or builtin that makes it so *)
  | Immediate
  | Alias of string
  | Other

type t = (string, shape) Hashtbl.t

let create () : t = Hashtbl.create 64

let mutable_builtins =
  [ "ref"; "array"; "bytes"; "Buffer.t"; "Bytes.t"; "Queue.t"; "Stack.t";
    "Hashtbl.t"; "Dynarray.t"; "floatarray" ]

let module_of_file file =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename file))

let dotted rev_context name = String.concat "." (List.rev (name :: rev_context))

(* The last components of a dotted path, e.g. "Stdlib.Buffer.t" ->
   "Buffer.t" at [n] = 2. *)
let last_components n s =
  let parts = String.split_on_char '.' s in
  let len = List.length parts in
  if len <= n then s
  else String.concat "." (List.filteri (fun i _ -> i >= len - n) parts)

let is_mutable_builtin name =
  List.exists
    (fun b ->
      String.equal name b
      || String.equal (last_components 2 name) b)
    mutable_builtins

let rec longident_name (l : Longident.t) =
  match l with
  | Longident.Lident s -> s
  | Longident.Ldot (p, s) -> longident_name p ^ "." ^ s
  | Longident.Lapply (a, b) ->
    longident_name a ^ "(" ^ longident_name b ^ ")"

let shape_of_declaration (td : Parsetree.type_declaration) =
  match td.Parsetree.ptype_kind with
  | Parsetree.Ptype_record labels ->
    (match
       List.find_opt
         (fun l -> l.Parsetree.pld_mutable = Asttypes.Mutable)
         labels
     with
     | Some l -> Mutable ("mutable field " ^ l.Parsetree.pld_name.Asttypes.txt)
     | None -> Other)
  | Parsetree.Ptype_variant constructors ->
    let constant c =
      match c.Parsetree.pcd_args with
      | Parsetree.Pcstr_tuple [] -> true
      | Parsetree.Pcstr_tuple _ | Parsetree.Pcstr_record _ -> false
    in
    if constructors <> [] && List.for_all constant constructors then Immediate
    else Other
  | Parsetree.Ptype_abstract | Parsetree.Ptype_open ->
    (match td.Parsetree.ptype_manifest with
     | Some { Parsetree.ptyp_desc = Parsetree.Ptyp_constr (lid, _); _ } ->
       let name = longident_name lid.Asttypes.txt in
       if is_mutable_builtin name then Mutable ("alias of " ^ name)
       else Alias name
     | _ -> Other)

(* Record every type declaration of [str] under the module context
   derived from [file]. *)
let add_structure t ~file (str : Parsetree.structure) =
  let context = ref [ module_of_file file ] in
  let iter = Ast_iterator.default_iterator in
  let rec item sub (si : Parsetree.structure_item) =
    match si.Parsetree.pstr_desc with
    | Parsetree.Pstr_type (_, decls) ->
      List.iter
        (fun (td : Parsetree.type_declaration) ->
          let name = td.Parsetree.ptype_name.Asttypes.txt in
          Hashtbl.replace t (dotted !context name) (shape_of_declaration td))
        decls
    | Parsetree.Pstr_module
        { Parsetree.pmb_name = { Asttypes.txt = Some m; _ };
          pmb_expr = { Parsetree.pmod_desc = Parsetree.Pmod_structure items; _ };
          _
        } ->
      context := m :: !context;
      List.iter (item sub) items;
      context := List.tl !context
    | _ -> iter.Ast_iterator.structure_item sub si
  in
  let sub = { iter with Ast_iterator.structure_item = item } in
  List.iter (item sub) str

(* Strip dune's wrapped-library mangling: "Memsim__Chunk" -> "Chunk",
   "Dune__exe__Repro" -> "Repro". *)
let strip_mangling component =
  let n = String.length component in
  let rec scan i start =
    if i + 1 >= n then start
    else if component.[i] = '_' && component.[i + 1] = '_' then
      scan (i + 2) (i + 2)
    else scan (i + 1) start
  in
  let start = scan 0 0 in
  String.sub component start (n - start)

let normalize path_name =
  String.concat "."
    (List.map strip_mangling (String.split_on_char '.' path_name))

(* Find the longest dotted suffix of [name] present in the table: the
   use site may reach a type through the library alias module
   ("Obs.Metrics.Histogram.t") while the table keys it from its
   defining file ("Metrics.Histogram.t"). *)
let find_suffix t name =
  let parts = String.split_on_char '.' name in
  let len = List.length parts in
  let rec try_from n =
    if n < 2 then None
    else
      match Hashtbl.find_opt t (last_components n name) with
      | Some s -> Some s
      | None -> try_from (n - 1)
  in
  try_from len

let lookup t path_name =
  let rec resolve depth name =
    if depth = 0 then Other
    else if is_mutable_builtin name then Mutable name
    else
      match find_suffix t name with
      | Some (Alias target) -> resolve (depth - 1) (normalize target)
      | Some s -> s
      | None -> Other
  in
  resolve 4 (normalize path_name)
