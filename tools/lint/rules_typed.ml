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
     synchronization argument gets written down and reviewed. *)

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
