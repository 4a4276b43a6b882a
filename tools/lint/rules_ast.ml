(* Source-level (Parsetree) rules.  Each finding carries the flagged
   identifier alongside it so the allowlist can match on it.

   - [lint.no-obj]        — any use of [Obj.*]: unsafe casts have no
                            place in a memory-system simulator whose
                            whole point is representation fidelity;
   - [lint.partial]       — [List.hd] / [List.tl] / [List.nth] /
                            [Option.get]: partial stdlib calls whose
                            failure raises far from the broken
                            invariant;
   - [lint.array-get]     — bounds-checked [Array.get] with a computed
                            index inside a hot-path module, where the
                            idiom is an explicit bound check plus
                            [unsafe_get] (or a proof the index is in
                            range, recorded in the allowlist);
   - [lint.hot-alloc]     — closures, boxed tuples and [lazy] blocks
                            inside a [let[@hot]] binding: the tagged
                            fast paths are the per-event loops, where
                            one allocation per event swamps the work
                            being measured.  A tuple that is only the
                            scrutinee of a [match], or is destructured
                            on the spot by a tuple pattern, does not
                            allocate and is exempt;
   - [lint.global-registry] — a top-level [ref] or [Hashtbl] in [lib/]
                            that a function body writes ([:=], [incr],
                            [decr], [Hashtbl.add]/[replace]): process-
                            wide state that every caller shares, on
                            every domain, and that keeps whatever it
                            holds alive for the life of the process.
                            Writes made while the module initializes
                            are exempt; a legitimate registry is
                            allowlisted with its justification. *)

type finding = { ident : string; f : Check.Finding.t }

let hot_path_files =
  [ "lib/vscheme/mem.ml"; "lib/memsim/cache.ml"; "lib/memsim/chunk.ml";
    "lib/memsim/recording.ml"; "lib/memsim/level.ml" ]

let partial_calls =
  [ ([ "List"; "hd" ], "List.hd"); ([ "List"; "tl" ], "List.tl");
    ([ "List"; "nth" ], "List.nth"); ([ "Option"; "get" ], "Option.get") ]

(* Files the global-registry rule covers: the libraries, and the
   self-test fixture that seeds a violation of it. *)
let registry_roots = [ "lib/"; "tools/lint/fixture/" ]

let pos_of_loc (loc : Location.t) =
  Check.Finding.Pos
    { line = loc.Location.loc_start.Lexing.pos_lnum;
      col =
        loc.Location.loc_start.Lexing.pos_cnum
        - loc.Location.loc_start.Lexing.pos_bol
    }

let flatten lid = try Longident.flatten lid with Misc.Fatal_error -> []

let has_hot_attribute attrs =
  List.exists
    (fun (a : Parsetree.attribute) ->
      String.equal a.Parsetree.attr_name.Asttypes.txt "hot")
    attrs

(* Is this application expression "computed" for the array-get rule?
   Constants and plain variables index safely often enough that
   flagging them is pure noise; anything built by an application
   (arithmetic included) is where the off-by-ones live. *)
let computed_index (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_apply _ -> true
  | _ -> false

(* The name a top-level binding gives a fresh [ref] or [Hashtbl]. *)
let registry_binding (vb : Parsetree.value_binding) =
  let rec name (p : Parsetree.pattern) =
    match p.Parsetree.ppat_desc with
    | Parsetree.Ppat_var v -> Some v.Asttypes.txt
    | Parsetree.Ppat_constraint (p, _) -> name p
    | _ -> None
  in
  let rec mutable_init (e : Parsetree.expression) =
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_constraint (e, _) -> mutable_init e
    | Parsetree.Pexp_apply
        ({ Parsetree.pexp_desc = Parsetree.Pexp_ident f; _ }, _) -> (
      match flatten f.Asttypes.txt with
      | [ "ref" ] | [ "Stdlib"; "ref" ] | [ "Hashtbl"; "create" ] -> true
      | _ -> false)
    | _ -> false
  in
  if mutable_init vb.Parsetree.pvb_expr then name vb.Parsetree.pvb_pat
  else None

let scan_registries ~file ~add (str : Parsetree.structure) =
  let rec registries (items : Parsetree.structure) =
    List.concat_map
      (fun (item : Parsetree.structure_item) ->
        match item.Parsetree.pstr_desc with
        | Parsetree.Pstr_value (_, vbs) -> List.filter_map registry_binding vbs
        | Parsetree.Pstr_module
            { Parsetree.pmb_expr =
                { Parsetree.pmod_desc = Parsetree.Pmod_structure items; _ };
              _
            } ->
          registries items
        | _ -> [])
      items
  in
  let names = registries str in
  let depth = ref 0 in
  let iter = Ast_iterator.default_iterator in
  let written (target : Parsetree.expression) =
    match target.Parsetree.pexp_desc with
    | Parsetree.Pexp_ident { Asttypes.txt = Longident.Lident n; _ }
      when List.mem n names ->
      Some n
    | _ -> None
  in
  let expr sub (e : Parsetree.expression) =
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_fun _ | Parsetree.Pexp_function _ ->
      incr depth;
      iter.Ast_iterator.expr sub e;
      decr depth
    | Parsetree.Pexp_apply
        ({ Parsetree.pexp_desc = Parsetree.Pexp_ident f; _ }, (_, target) :: _)
      when !depth > 0 ->
      (match (flatten f.Asttypes.txt, written target) with
       | ( ([ ":=" ] | [ "incr" ] | [ "decr" ] | [ "Hashtbl"; "add" ]
           | [ "Hashtbl"; "replace" ]),
           Some n ) ->
         add ~rule:"lint.global-registry" ~loc:e.Parsetree.pexp_loc ~ident:n
           (Printf.sprintf
              "top-level %s is written by a function: process-wide state \
               shared by every caller and domain, and kept alive for the \
               life of the process; give it an owner, or allowlist why it \
               is safe"
              n)
       | _ -> ());
      iter.Ast_iterator.expr sub e
    | _ -> iter.Ast_iterator.expr sub e
  in
  if
    names <> []
    && List.exists
         (fun prefix -> String.starts_with ~prefix file)
         registry_roots
  then begin
    let sub = { iter with Ast_iterator.expr } in
    sub.Ast_iterator.structure sub str
  end

let scan ~file (str : Parsetree.structure) =
  let out = ref [] in
  let add ~rule ~loc ~ident msg =
    out :=
      { ident;
        f =
          Check.Finding.v ~rule ~file ~where:(pos_of_loc loc) msg
      }
      :: !out
  in
  let hot_file = List.exists (Allow.suffix_match ~suffix:file) hot_path_files in
  (* Physical identity sets driving the exemptions of lint.hot-alloc. *)
  let tuple_ok : (Parsetree.expression, unit) Hashtbl.t = Hashtbl.create 8 in
  let in_hot = ref false in
  let check_longident ~loc lid =
    match flatten lid with
    | "Obj" :: _ ->
      add ~rule:"lint.no-obj" ~loc ~ident:"Obj"
        "Obj breaks every representation invariant the simulator is built \
         to preserve"
    | parts ->
      List.iter
        (fun (path, name) ->
          if parts = path then
            add ~rule:"lint.partial" ~loc ~ident:name
              (Printf.sprintf
                 "partial call %s raises far from the broken invariant; \
                  match on the shape instead" name))
        partial_calls
  in
  let iter = Ast_iterator.default_iterator in
  let expr sub (e : Parsetree.expression) =
    let loc = e.Parsetree.pexp_loc in
    (match e.Parsetree.pexp_desc with
     | Parsetree.Pexp_ident lid | Parsetree.Pexp_new lid ->
       check_longident ~loc lid.Asttypes.txt
     | Parsetree.Pexp_apply (fn, args) ->
       (match fn.Parsetree.pexp_desc with
        | Parsetree.Pexp_ident
            { Asttypes.txt =
                Longident.Ldot (Longident.Lident "Array", "get");
              _
            }
          when hot_file ->
          (match args with
           | [ _; (_, idx) ] when computed_index idx ->
             add ~rule:"lint.array-get" ~loc ~ident:"Array.get"
               "bounds-checked Array.get with a computed index on a hot \
                path; check the bound once and use unsafe_get, or \
                allowlist the proof the index is in range"
           | _ -> ())
        | _ -> ())
     | Parsetree.Pexp_match (scrutinee, _) ->
       (match scrutinee.Parsetree.pexp_desc with
        | Parsetree.Pexp_tuple _ -> Hashtbl.replace tuple_ok scrutinee ()
        | _ -> ())
     | Parsetree.Pexp_let (_, bindings, _) ->
       List.iter
         (fun (vb : Parsetree.value_binding) ->
           match
             ( vb.Parsetree.pvb_pat.Parsetree.ppat_desc,
               vb.Parsetree.pvb_expr.Parsetree.pexp_desc )
           with
           | Parsetree.Ppat_tuple _, Parsetree.Pexp_tuple _ ->
             Hashtbl.replace tuple_ok vb.Parsetree.pvb_expr ()
           | _ -> ())
         bindings
     | _ -> ());
    if !in_hot then begin
      match e.Parsetree.pexp_desc with
      | Parsetree.Pexp_fun _ | Parsetree.Pexp_function _ ->
        add ~rule:"lint.hot-alloc" ~loc ~ident:"closure"
          "closure allocated inside a [@hot] function"
      | Parsetree.Pexp_lazy _ ->
        add ~rule:"lint.hot-alloc" ~loc ~ident:"lazy"
          "lazy block allocated inside a [@hot] function"
      | Parsetree.Pexp_tuple _ when not (Hashtbl.mem tuple_ok e) ->
        add ~rule:"lint.hot-alloc" ~loc ~ident:"tuple"
          "boxed tuple allocated inside a [@hot] function (a tuple only \
           matched or destructured on the spot is exempt)"
      | _ -> ()
    end;
    iter.Ast_iterator.expr sub e
  in
  let value_binding sub (vb : Parsetree.value_binding) =
    let hot =
      has_hot_attribute vb.Parsetree.pvb_attributes
      || has_hot_attribute vb.Parsetree.pvb_expr.Parsetree.pexp_attributes
    in
    if hot && not !in_hot then begin
      in_hot := true;
      (* The outermost curried parameters are the function itself, not
         an allocation inside it: skip past them before flagging. *)
      let rec body (e : Parsetree.expression) =
        match e.Parsetree.pexp_desc with
        | Parsetree.Pexp_fun (_, _, _, rest) -> body rest
        | Parsetree.Pexp_newtype (_, rest) -> body rest
        | _ -> expr sub e
      in
      sub.Ast_iterator.pat sub vb.Parsetree.pvb_pat;
      body vb.Parsetree.pvb_expr;
      in_hot := false
    end
    else iter.Ast_iterator.value_binding sub vb
  in
  let typ sub (t : Parsetree.core_type) =
    (match t.Parsetree.ptyp_desc with
     | Parsetree.Ptyp_constr (lid, _) | Parsetree.Ptyp_class (lid, _) ->
       (match flatten lid.Asttypes.txt with
        | "Obj" :: _ ->
          add ~rule:"lint.no-obj" ~loc:t.Parsetree.ptyp_loc ~ident:"Obj"
            "Obj breaks every representation invariant the simulator is \
             built to preserve"
        | _ -> ())
     | _ -> ());
    iter.Ast_iterator.typ sub t
  in
  let module_expr sub (m : Parsetree.module_expr) =
    (match m.Parsetree.pmod_desc with
     | Parsetree.Pmod_ident lid ->
       (match flatten lid.Asttypes.txt with
        | "Obj" :: _ ->
          add ~rule:"lint.no-obj" ~loc:m.Parsetree.pmod_loc ~ident:"Obj"
            "Obj breaks every representation invariant the simulator is \
             built to preserve"
        | _ -> ())
     | _ -> ());
    iter.Ast_iterator.module_expr sub m
  in
  let sub =
    { iter with Ast_iterator.expr; value_binding; typ; module_expr }
  in
  sub.Ast_iterator.structure sub str;
  scan_registries ~file ~add str;
  List.rev !out
