(* Typedtree rules, run over the .cmt files dune already produced (no
   re-typechecking; classification works from [Path.name] strings plus
   the Parsetree-derived {!Shapes} table, so no environment
   reconstruction is needed either).

   - [lint.poly-compare] — in the hot-path modules, a call to
     polymorphic [=] / [<>] / [compare] / [min] / [max] /
     [Hashtbl.hash] whose argument type is not known to be immediate.
     Polymorphic comparison walks the representation through a C call;
     on the per-event paths that cost dwarfs the simulated work, and
     on boxed types ([Int64.t], closures, options of closures) it is a
     correctness trap besides.

   - [lint.hot-partial-app] — inside a function belonging to the
     [@hot] call-graph closure (see {!Rules_interproc}), an
     application whose result type is still an arrow: partial
     application allocates a closure per evaluation, exactly the cost
     the hot tag forbids.  Detected on the Typedtree because only the
     typed result distinguishes a partial application from a saturated
     call through a function-returning function.

   - [lint.hot-write-barrier] — inside a closure function, a mutable
     record-field assignment whose right-hand side is not statically
     immediate: such stores go through [caml_modify], whose card-table
     work on the per-event paths costs more than the store itself.
     Assignments of ints, chars and bools compile to a plain store and
     pass.

   - [lint.domain-race] — the domain-race audit.  For every
     [Domain.spawn] application, and every application of the sweep
     engine's domain pool [Sweep.parallel_for] (whose last argument
     runs on worker domains): take the free identifiers of the
     spawned expression, transitively expanding identifiers whose
     definition is a value binding in the same compilation unit (the
     spawned thunk is usually a named local function); flag each one
     whose type is mutable — a ref, array, bytes or mutable-record
     type — unless it is [Atomic.t]-protected or allowlisted with a
     justification.  The rule deliberately reports shared mutable
     state that is correctly synchronized (protected by a mutex, or
     partitioned by index): the allowlist entry is where that
     synchronization argument gets written down and reviewed.

   - [lint.unused-export] — a [val] in a library interface that no
     other compilation unit uses (see {!unused_exports} below). *)

type finding = { ident : string; f : Check.Finding.t }

(* [Sweep.parallel_for] is the claim-by-index domain pool every replay
   and the sharded producer go through; its one [Domain.spawn] sees
   only an opaque callback, so each application of the pool counts as
   a spawn site of its own. *)
let is_pool ~modname name =
  String.equal name "Sweep.parallel_for"
  || String.equal name "Memsim.Sweep.parallel_for"
  || (String.equal modname "Sweep" && String.equal name "parallel_for")

let hot_path_modules = [ "Mem"; "Cache"; "Chunk"; "Recording"; "Level"; "Hier" ]

let pos_of_loc (loc : Location.t) =
  Check.Finding.Pos
    { line = loc.Location.loc_start.Lexing.pos_lnum;
      col =
        loc.Location.loc_start.Lexing.pos_cnum
        - loc.Location.loc_start.Lexing.pos_bol
    }

(* --- type classification ------------------------------------------------- *)

let safe_heads =
  [ "Atomic.t"; "Mutex.t"; "Condition.t"; "Semaphore.Counting.t";
    "Semaphore.Binary.t"; "Domain.t"; "Stdlib.Atomic.t"; "Stdlib.Mutex.t";
    "Stdlib.Condition.t"; "Stdlib.Domain.t" ]

let predef_immediate p =
  Path.same p Predef.path_int || Path.same p Predef.path_char
  || Path.same p Predef.path_bool
  || Path.same p Predef.path_unit

type cls =
  | Immediate
  | Safe           (* immutable or explicitly synchronized *)
  | Func
  | Mutable of string
  | Unknown

let classify shapes ty =
  match Types.get_desc ty with
  | Types.Tarrow _ -> Func
  | Types.Ttuple _ -> Safe
  | Types.Tconstr (p, _, _) ->
    if predef_immediate p then Immediate
    else if Path.same p Predef.path_string || Path.same p Predef.path_float
    then Safe
    else begin
      let name = Shapes.normalize (Path.name p) in
      if
        List.exists
          (fun s ->
            String.equal name s
            || String.equal (Shapes.last_components 2 name) s)
          safe_heads
      then Safe
      else
        match Shapes.lookup shapes (Path.name p) with
        | Shapes.Mutable why -> Mutable why
        | Shapes.Immediate -> Immediate
        | Shapes.Alias _ | Shapes.Other -> Unknown
    end
  | _ -> Unknown

(* --- poly-compare -------------------------------------------------------- *)

let poly_ops =
  [ "="; "<>"; "compare"; "min"; "max"; "Hashtbl.hash" ]

(* Only the Stdlib ones: a module's own [compare] is already
   monomorphic. *)
let poly_op_name path =
  let name = Shapes.normalize (Path.name path) in
  if String.equal name "Stdlib.Hashtbl.hash" then Some "Hashtbl.hash"
  else
    match String.split_on_char '.' name with
    | [ "Stdlib"; op ] when List.mem op poly_ops -> Some op
    | _ -> None

(* --- the scan ------------------------------------------------------------ *)

let scan ~file ~shapes ?(in_closure = fun ~modname:_ ~fname:_ -> false)
    (str : Typedtree.structure) =
  let out = ref [] in
  let add ~rule ~loc ~ident msg =
    out :=
      { ident; f = Check.Finding.v ~rule ~file ~where:(pos_of_loc loc) msg }
      :: !out
  in
  let modname = Shapes.module_of_file file in
  let hot = List.exists (String.equal modname) hot_path_modules in

  (* The top-level binding currently being traversed, for attributing
     the closure rules; local lets keep the enclosing name, matching
     the interprocedural graph's granularity. *)
  let current_fn = ref None in
  let in_hot_closure () =
    match !current_fn with
    | Some fname -> in_closure ~modname ~fname
    | None -> false
  in
  (* Qualified like the interprocedural pass names its nodes, so one
     allowlist ident covers both rule families. *)
  let qual () = modname ^ "." ^ Option.value ~default:"?" !current_fn in

  (* Every value binding in the unit, for spawn-argument expansion. *)
  let bindings : (Ident.t, Typedtree.expression) Hashtbl.t =
    Hashtbl.create 64
  in
  let spawns : (Location.t * Typedtree.expression) list ref = ref [] in

  let iter = Tast_iterator.default_iterator in
  let collect_binding (vb : Typedtree.value_binding) =
    match vb.Typedtree.vb_pat.Typedtree.pat_desc with
    | Typedtree.Tpat_var (id, _) ->
      Hashtbl.replace bindings id vb.Typedtree.vb_expr
    | _ -> ()
  in
  let expr sub (e : Typedtree.expression) =
    (if in_hot_closure () then
       match e.Typedtree.exp_desc with
       | Typedtree.Texp_apply (_, _) -> (
         match Types.get_desc e.Typedtree.exp_type with
         | Types.Tarrow _ ->
           add ~rule:"lint.hot-partial-app" ~loc:e.Typedtree.exp_loc
             ~ident:(qual ())
             (Printf.sprintf
                "partial application in %s.%s (reachable from a [@hot] \
                 root) allocates a closure per evaluation; saturate the \
                 call or hoist it"
                modname
                (Option.value ~default:"?" !current_fn))
         | _ -> ())
       | Typedtree.Texp_setfield (_, _, label, v) -> (
         match classify shapes v.Typedtree.exp_type with
         | Immediate -> ()
         | Safe | Func | Mutable _ | Unknown ->
           add ~rule:"lint.hot-write-barrier" ~loc:e.Typedtree.exp_loc
             ~ident:(qual ())
             (Printf.sprintf
                "store of a non-immediate value into mutable field %s in \
                 %s.%s (reachable from a [@hot] root) runs the caml_modify \
                 write barrier per event"
                label.Types.lbl_name modname
                (Option.value ~default:"?" !current_fn)))
       | _ -> ());
    (match e.Typedtree.exp_desc with
     | Typedtree.Texp_apply (fn, args) -> (
       match fn.Typedtree.exp_desc with
       | Typedtree.Texp_ident (path, _, _) -> (
         let name = Shapes.normalize (Path.name path) in
         if
           String.equal name "Domain.spawn"
           || String.equal name "Stdlib.Domain.spawn"
         then
           match args with
           | (_, Some arg) :: _ ->
             spawns := (e.Typedtree.exp_loc, arg) :: !spawns
           | _ -> ()
         else if is_pool ~modname name then
           (* The pool runs its last argument on worker domains, so the
              closure passed there is audited like a spawned thunk. *)
           match List.rev args with
           | (_, Some arg) :: _ ->
             spawns := (e.Typedtree.exp_loc, arg) :: !spawns
           | _ -> ()
         else if hot then
           match poly_op_name path with
           | None -> ()
           | Some op -> (
             match args with
             | (_, Some first) :: _ -> (
               match classify shapes first.Typedtree.exp_type with
               | Immediate -> ()
               | Safe | Func | Mutable _ | Unknown ->
                 add ~rule:"lint.poly-compare" ~loc:e.Typedtree.exp_loc
                   ~ident:op
                   (Printf.sprintf
                      "polymorphic %s on a non-immediate type in a \
                       hot-path module; use the type's own equality or \
                       match on the shape"
                      op))
             | _ -> ()))
       | _ -> ())
     | _ -> ());
    iter.Tast_iterator.expr sub e
  in
  let value_binding sub vb =
    collect_binding vb;
    match (!current_fn, vb.Typedtree.vb_pat.Typedtree.pat_desc) with
    | None, Typedtree.Tpat_var (id, _) ->
      current_fn := Some (Ident.name id);
      iter.Tast_iterator.value_binding sub vb;
      current_fn := None
    | _ -> iter.Tast_iterator.value_binding sub vb
  in
  let sub = { iter with Tast_iterator.expr; value_binding } in
  sub.Tast_iterator.structure sub str;

  (* --- race audit over the collected spawn sites --- *)
  let free_idents (e : Typedtree.expression) =
    (* Ident stamps are globally unique within a unit, so one flat
       pass suffices: everything referenced minus everything bound
       anywhere inside the expression. *)
    let bound : (Ident.t, unit) Hashtbl.t = Hashtbl.create 16 in
    let used : (Ident.t * Location.t * Types.type_expr) list ref = ref [] in
    let it = Tast_iterator.default_iterator in
    let pat (type k) sub (p : k Typedtree.general_pattern) =
      (match p.Typedtree.pat_desc with
       | Typedtree.Tpat_var (id, _) -> Hashtbl.replace bound id ()
       | Typedtree.Tpat_alias (_, id, _) -> Hashtbl.replace bound id ()
       | _ -> ());
      it.Tast_iterator.pat sub p
    in
    let expr sub (e : Typedtree.expression) =
      (match e.Typedtree.exp_desc with
       | Typedtree.Texp_ident (Path.Pident id, _, _) ->
         used := (id, e.Typedtree.exp_loc, e.Typedtree.exp_type) :: !used
       | _ -> ());
      it.Tast_iterator.expr sub e
    in
    let sub = { it with Tast_iterator.pat; expr } in
    sub.Tast_iterator.expr sub e;
    List.filter (fun (id, _, _) -> not (Hashtbl.mem bound id)) !used
  in
  let audit (spawn_loc : Location.t) arg =
    let reported : (string, unit) Hashtbl.t = Hashtbl.create 8 in
    let visited : (Ident.t, unit) Hashtbl.t = Hashtbl.create 8 in
    let rec walk e =
      List.iter
        (fun (id, loc, ty) ->
          if not (Hashtbl.mem visited id) then begin
            Hashtbl.replace visited id ();
            match classify shapes ty with
            | Mutable why ->
              let name = Ident.name id in
              if not (Hashtbl.mem reported name) then begin
                Hashtbl.replace reported name ();
                add ~rule:"lint.domain-race" ~loc ~ident:name
                  (Printf.sprintf
                     "%s (%s) is shared with the domain spawned at line \
                      %d; protect it with Atomic, or allowlist it with \
                      the synchronization argument"
                     name why spawn_loc.Location.loc_start.Lexing.pos_lnum)
              end
            | Func | Unknown -> (
              (* Expand local definitions: the spawned thunk is
                 usually a named function whose body captures the
                 state we are after. *)
              match Hashtbl.find_opt bindings id with
              | Some def -> walk def
              | None -> ())
            | Immediate | Safe -> ()
          end)
        (free_idents e)
    in
    walk arg
  in
  List.iter (fun (loc, arg) -> audit loc arg) (List.rev !spawns);
  List.rev !out

(* --- unused exports ------------------------------------------------------ *)

(* [lint.unused-export]: a [val] in a library interface that no other
   compilation unit references.  Uses are the [Texp_ident] paths of
   every implementation .cmt, resolved to (defining unit, value path
   inside it): [Memsim.Level.x], [Memsim__Level.x] and an in-library
   [Level.x] (which dune's alias module turns into [Memsim.Level.x])
   all name [Memsim__Level]'s [x], and a local [module L = ...] alias
   is followed.  A module used whole — a functor argument, [include],
   a packed first-class module — uses every value under it; [open] and
   [module type of] use nothing by themselves. *)

type unit_source = {
  src : string;       (* cmt_sourcefile: "lib/memsim/level.ml" *)
  modname : string;   (* cmt_modname: "Memsim__Level" *)
  str : Typedtree.structure;
}

type export = {
  unit_name : string;
  vpath : string list;  (* ["find"], or ["Counter"; "incr"] when nested *)
  mli : string;
  loc : Location.t;
}

type export_finding = { finding : finding; test_users : string list }

(* Every [val] of an interface, nested module signatures included. *)
let exports ~mli ~unit_name (sg : Typedtree.signature) =
  let rec go prefix acc (sg : Typedtree.signature) =
    List.fold_left
      (fun acc (item : Typedtree.signature_item) ->
        match item.Typedtree.sig_desc with
        | Typedtree.Tsig_value vd ->
          { unit_name;
            vpath = prefix @ [ Ident.name vd.Typedtree.val_id ];
            mli;
            loc = vd.Typedtree.val_loc
          }
          :: acc
        | Typedtree.Tsig_module
            { Typedtree.md_id = Some id;
              md_type = { Typedtree.mty_desc = Typedtree.Tmty_signature s; _ };
              _
            } ->
          go (prefix @ [ Ident.name id ]) acc s
        | _ -> acc)
      acc sg.Typedtree.sig_items
  in
  List.rev (go [] [] sg)

let rec flatten = function
  | Path.Pident id -> Some (id, [])
  | Path.Pdot (p, s) ->
    Option.map (fun (id, cs) -> (id, cs @ [ s ])) (flatten p)
  | _ -> None

let strip_suffix ~suffix s =
  let ls = String.length s and lx = String.length suffix in
  if lx <= ls && String.equal (String.sub s (ls - lx) lx) suffix then
    String.sub s 0 (ls - lx)
  else s

(* [units] holds the defining units' names.  A global head that is not
   one of them may be a wrapped library's alias module ([Memsim], or
   [Memsim__] when the library has a main module of its own), whose
   first component names the unit. *)
let resolve ~units ~aliases path =
  match flatten path with
  | None -> None
  | Some (id, comps) ->
    if not (Ident.global id) then
      Option.map
        (fun (u, pre) -> (u, pre @ comps))
        (Hashtbl.find_opt aliases id)
    else begin
      let n = Ident.name id in
      if Hashtbl.mem units n then Some (n, comps)
      else
        match comps with
        | c :: rest ->
          let u = strip_suffix ~suffix:"__" n ^ "__" ^ c in
          if Hashtbl.mem units u then Some (u, rest) else None
        | [] -> None
    end

(* Calls [value (unit, vpath)] for each resolved value reference and
   [whole (unit, prefix)] for each module used whole. *)
let scan_uses ~units ~value ~whole (str : Typedtree.structure) =
  let aliases : (Ident.t, string * string list) Hashtbl.t = Hashtbl.create 8 in
  let rec alias_target (m : Typedtree.module_expr) =
    match m.Typedtree.mod_desc with
    | Typedtree.Tmod_ident (p, _) -> Some p
    | Typedtree.Tmod_constraint (m, _, Typedtree.Tmodtype_implicit, _) ->
      alias_target m
    | _ -> None
  in
  (* A [module L = P] binding is an alias, not a use of all of [P]. *)
  let bind_alias id m =
    match (id, alias_target m) with
    | Some id, Some p ->
      Option.iter (Hashtbl.replace aliases id) (resolve ~units ~aliases p);
      true
    | _ -> false
  in
  let it = Tast_iterator.default_iterator in
  let expr sub (e : Typedtree.expression) =
    match e.Typedtree.exp_desc with
    | Typedtree.Texp_letmodule (id, _, _, m, body) when bind_alias id m ->
      sub.Tast_iterator.expr sub body
    | Typedtree.Texp_ident (p, _, _) ->
      Option.iter value (resolve ~units ~aliases p)
    | _ -> it.Tast_iterator.expr sub e
  in
  let module_binding sub (mb : Typedtree.module_binding) =
    if not (bind_alias mb.Typedtree.mb_id mb.Typedtree.mb_expr) then
      it.Tast_iterator.module_binding sub mb
  in
  let module_expr sub (m : Typedtree.module_expr) =
    (match m.Typedtree.mod_desc with
     | Typedtree.Tmod_ident (p, _) ->
       Option.iter whole (resolve ~units ~aliases p)
     | _ -> ());
    it.Tast_iterator.module_expr sub m
  in
  let open_declaration sub (od : Typedtree.open_declaration) =
    match od.Typedtree.open_expr.Typedtree.mod_desc with
    | Typedtree.Tmod_ident _ -> ()
    | _ -> it.Tast_iterator.open_declaration sub od
  in
  let module_type sub (mt : Typedtree.module_type) =
    match mt.Typedtree.mty_desc with
    | Typedtree.Tmty_typeof _ -> ()
    | _ -> it.Tast_iterator.module_type sub mt
  in
  let sub =
    { it with
      Tast_iterator.expr;
      module_binding;
      module_expr;
      open_declaration;
      module_type
    }
  in
  sub.Tast_iterator.structure sub str

let rec is_prefix pre l =
  match (pre, l) with
  | [], _ -> true
  | p :: pre, x :: l -> String.equal p x && is_prefix pre l
  | _ :: _, [] -> false

let root_of src =
  match String.index_opt src '/' with
  | Some i -> String.sub src 0 i
  | None -> src

(* Flags each export that no unit but its own uses.  Uses from units
   under [test_root] are collected but do not count: such a value is
   flagged too, with the tests that use it named, so that keeping it
   takes an allowlist entry saying which oracle, fuzz target or
   model-checking hook it is. *)
let unused_exports ~test_root (defs : export list) (users : unit_source list) =
  let units = Hashtbl.create 64 in
  List.iter (fun d -> Hashtbl.replace units d.unit_name ()) defs;
  let direct : (string * string list, unit_source) Hashtbl.t =
    Hashtbl.create 1024
  in
  let wholes = ref [] in
  List.iter
    (fun u ->
      scan_uses ~units
        ~value:(fun key -> Hashtbl.add direct key u)
        ~whole:(fun (un, pre) -> wholes := (un, pre, u) :: !wholes)
        u.str)
    users;
  List.filter_map
    (fun d ->
      let by_whole =
        List.filter_map
          (fun (un, pre, u) ->
            if String.equal un d.unit_name && is_prefix pre d.vpath then Some u
            else None)
          !wholes
      in
      let others =
        List.filter
          (fun u -> not (String.equal u.modname d.unit_name))
          (Hashtbl.find_all direct (d.unit_name, d.vpath) @ by_whole)
      in
      let is_test u = String.equal (root_of u.src) test_root in
      if List.exists (fun u -> not (is_test u)) others then None
      else begin
        let test_users =
          List.sort_uniq String.compare (List.map (fun u -> u.src) others)
        in
        let name =
          String.concat "."
            (String.capitalize_ascii
               (Filename.remove_extension (Filename.basename d.mli))
            :: d.vpath)
        in
        let msg =
          match test_users with
          | [] ->
            Printf.sprintf
              "%s is exported but no other unit uses it; take it out of \
               the interface (and delete it if nothing else needs it)"
              name
          | ts ->
            Printf.sprintf
              "%s is used outside its unit only by %s, and tests do not \
               count; take it out of the interface, or allowlist it naming \
               that test and the oracle, fuzz or hook role it plays"
              name (String.concat ", " ts)
        in
        Some
          { finding =
              { ident = name;
                f =
                  Check.Finding.v ~rule:"lint.unused-export" ~file:d.mli
                    ~where:(pos_of_loc d.loc) msg
              };
            test_users
          }
      end)
    defs
