(* repro-lint: project-specific static analysis over lib/ and bin/.

   Two passes share one diagnostic stream:

   - a Parsetree pass parses every source directly (interface
     coverage, Obj, partial stdlib calls, hot-path allocation rules);
   - a Typedtree pass reads the .cmt files dune already produced
     (polymorphic comparison in hot-path modules, the domain-race
     audit over Domain.spawn captures, and the unused-export rule over
     every unit's value references) — run `dune build @check' first.

   The Parsetree pass also feeds an interprocedural stage
   ({!Rules_interproc}): a call graph over every top-level binding,
   with the [@hot] bindings as roots, whose reachable closure is
   scanned for allocations ([lint.hot-alloc-deep]) and handed to the
   Typedtree pass so the closure-only rules ([lint.hot-partial-app],
   [lint.hot-write-barrier]) know which functions the fast paths can
   actually reach.

   Findings suppressed by lint.allow must carry a justification;
   entries that no longer match anything are reported as stale, and
   entries whose file pattern matches no scanned file at all are
   orphans — `--prune-allow' rewrites the allowlist without them.
   `--self-test' scans the seeded-violation fixture instead of the
   real tree and succeeds iff the rules catch every seeded bug
   (negative self-test of the analyzer).
   Exit status 1 iff any unallowlisted error remains. *)

let scan_roots = [ "lib"; "bin" ]
let build_root = "_build/default"

let rec walk dir acc =
  if not (Sys.file_exists dir) then acc
  else
    Array.fold_left
      (fun acc entry ->
        let path = Filename.concat dir entry in
        if Sys.is_directory path then walk path acc else path :: acc)
      acc (Sys.readdir dir)

let sources_under root ~ext =
  List.filter (fun f -> Filename.check_suffix f ext) (walk root [])
  |> List.sort String.compare

(* --- Parsetree pass ------------------------------------------------------ *)

let parse_impl path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let lexbuf = Lexing.from_channel ic in
      Lexing.set_filename lexbuf path;
      Parse.implementation lexbuf)

let parse_error_finding path exn =
  let msg =
    match Location.error_of_exn exn with
    | Some (`Ok report) ->
      Format.asprintf "%a" Location.print_report report
    | Some `Already_displayed | None -> Printexc.to_string exn
  in
  { Rules_ast.ident = "parse";
    f = Check.Finding.v ~rule:"lint.parse" ~file:path msg
  }

(* --- Typedtree pass ------------------------------------------------------ *)

(* Every .cmt and .cmti under _build/default, read once.  dune records
   the context-relative source path in cmt_sourcefile, which is exactly
   how we name sources. *)
let read_cmts () =
  List.filter_map
    (fun cmt_path ->
      match Cmt_format.read_cmt cmt_path with
      | exception _ -> None
      | infos ->
        Option.map
          (fun src ->
            (src, infos.Cmt_format.cmt_modname, infos.Cmt_format.cmt_annots))
          infos.Cmt_format.cmt_sourcefile)
    (sources_under build_root ~ext:".cmt"
    @ sources_under build_root ~ext:".cmti")

let contains s sub =
  let n = String.length sub in
  let rec from i =
    i + n <= String.length s
    && (String.equal (String.sub s i n) sub || from (i + 1))
  in
  from 0

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

(* --- lint.unused-export -------------------------------------------------- *)

(* The roots whose units count as users of lib/'s exports.  Uses from
   test/ are seen but do not count (see {!Rules_typed.unused_exports}). *)
let user_roots =
  [ "lib"; "bin"; "bench"; "examples"; "perfbench"; "tools"; "test" ]

type exports =
  | Scanned of int * Rules_typed.export_finding list
      (** exports scanned, and the flagged ones *)
  | Partial of Check.Finding.t
      (** some root or interface has no .cmt: nothing can be called
          unused *)

(* The exports of [mlis] against the implementations under [roots].
   Without every root's .cmt (a plain `dune build' makes none for
   executables; @check does) everything only the missing units use
   would look unused, so a partial build gets one located error and no
   per-value findings. *)
let unused_exports ~cmts ~mlis ~roots =
  let under root src = has_prefix ~prefix:(root ^ "/") src in
  let users =
    List.filter_map
      (fun (src, modname, annots) ->
        match annots with
        | Cmt_format.Implementation str
          when Filename.check_suffix src ".ml"
               && List.exists (fun r -> under r src) roots ->
          Some { Rules_typed.src; modname; str }
        | _ -> None)
      cmts
  in
  let interface mli =
    List.find_map
      (fun (src, modname, annots) ->
        match annots with
        | Cmt_format.Interface sg when String.equal src mli ->
          Some (modname, sg)
        | _ -> None)
      cmts
  in
  let missing_root =
    List.find_opt
      (fun root ->
        not
          (List.exists
             (fun (u : Rules_typed.unit_source) -> under root u.src)
             users))
      roots
  in
  let missing_interface =
    List.find_opt (fun mli -> Option.is_none (interface mli)) mlis
  in
  let partial file what =
    Partial
      (Check.Finding.v ~rule:"lint.unused-export" ~file
         (what
        ^ " (partial build?); every unit must be typed before an export \
           can be called unused: run `dune build @check' first"))
  in
  match (missing_root, missing_interface) with
  | Some root, _ ->
    partial root
      ("no implementation .cmt under " ^ Filename.concat build_root root)
  | None, Some mli ->
    partial mli ("no .cmti for this interface under " ^ build_root)
  | None, None ->
    let defs =
      List.concat_map
        (fun mli ->
          match interface mli with
          | Some (unit_name, sg) -> Rules_typed.exports ~mli ~unit_name sg
          | None -> [])
        mlis
    in
    Scanned
      ( List.length defs,
        Rules_typed.unused_exports ~test_root:"test" defs users )

(* --- Driver -------------------------------------------------------------- *)

let fixture_root = "tools/lint/fixture"

(* Rules the fixture seeds; --self-test fails if any goes uncaught. *)
let self_test_rules =
  [ "lint.hot-alloc-deep"; "lint.hot-partial-app"; "lint.hot-write-barrier";
    "lint.global-registry"; "lint.unused-export" ]

(* The fixture's seeded unused exports: each must be flagged by name. *)
let self_test_exports =
  [ "Fixture_exports.own_only"; "Fixture_exports.unused" ]

let () =
  let allow_path = ref "lint.allow" in
  let json_out = ref None in
  let self_test = ref false in
  let prune_allow = ref false in
  Arg.parse
    [ ("--allow", Arg.Set_string allow_path, "FILE allowlist (lint.allow)");
      ("--json", Arg.String (fun s -> json_out := Some s),
       "FILE write machine-readable findings to FILE ('-' for stdout)");
      ("--self-test", Arg.Set self_test,
       " scan the seeded-violation fixture; succeed iff every seeded \
        bug is caught");
      ("--prune-allow", Arg.Set prune_allow,
       " rewrite the allowlist without entries whose file is gone")
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "lint: static analysis for the repro tree (run from the repo root)";

  let scan_roots = if !self_test then [ fixture_root ] else scan_roots in
  let entries, allow_findings =
    if !self_test then ([], []) else Allow.load !allow_path
  in
  let mls =
    List.concat_map (fun root -> sources_under root ~ext:".ml") scan_roots
  in

  (* Interface coverage: every library module states its contract. *)
  let coverage =
    List.filter_map
      (fun ml ->
        if
          String.length ml >= 4
          && String.equal (String.sub ml 0 4) "lib/"
          && not (Sys.file_exists (ml ^ "i"))
        then
          Some
            { Rules_ast.ident = Filename.basename ml;
              f =
                Check.Finding.v ~rule:"lint.interface" ~file:ml
                  "library module has no .mli; every lib/ module states \
                   its contract"
            }
        else None)
      mls
  in

  (* Parse everything once; the shape table needs all sources before
     any typed rule runs. *)
  let parsed, parse_failures =
    List.fold_left
      (fun (ok, bad) ml ->
        match parse_impl ml with
        | str -> ((ml, str) :: ok, bad)
        | exception exn -> (ok, parse_error_finding ml exn :: bad))
      ([], []) mls
  in
  let parsed = List.rev parsed and parse_failures = List.rev parse_failures in
  let shapes = Shapes.create () in
  List.iter (fun (ml, str) -> Shapes.add_structure shapes ~file:ml str) parsed;

  let ast_findings =
    List.concat_map (fun (ml, str) -> Rules_ast.scan ~file:ml str) parsed
  in

  (* Interprocedural stage: the [@hot] call-graph closure. *)
  let interproc = Rules_interproc.analyze parsed in
  let interproc_findings =
    List.map
      (fun { Rules_interproc.ident; f } -> { Rules_ast.ident; f })
      (Rules_interproc.scan interproc)
  in
  let in_closure = Rules_interproc.mem interproc in

  let cmts = read_cmts () in
  let impl ml =
    List.find_map
      (fun (src, _, annots) ->
        match annots with
        | Cmt_format.Implementation str when String.equal src ml -> Some str
        | _ -> None)
      cmts
  in
  let typed_findings, missing_cmts =
    List.fold_left
      (fun (fs, missing) (ml, _) ->
        match impl ml with
        | Some str ->
          (fs @ Rules_typed.scan ~file:ml ~shapes ~in_closure str, missing)
        | None ->
          ( fs,
            { Rules_ast.ident = "cmt";
              f =
                Check.Finding.v ~severity:Check.Finding.Warning
                  ~rule:"lint.no-cmt" ~file:ml
                  "no .cmt under _build/default (stale build?); typed \
                   rules skipped — run `dune build @check' first"
            }
            :: missing ))
      ([], []) parsed
  in
  let typed_findings =
    List.map
      (fun { Rules_typed.ident; f } -> { Rules_ast.ident; f })
      typed_findings
  in

  let mlis =
    List.concat_map (fun root -> sources_under root ~ext:".mli") scan_roots
  in
  let exports =
    unused_exports ~cmts ~mlis
      ~roots:(if !self_test then [ fixture_root ] else user_roots)
  in
  let exports_scanned, export_findings =
    match exports with Scanned (n, fs) -> (n, fs) | Partial _ -> (0, [])
  in
  (* A test-only export is kept only by an entry whose justification
     names one of the tests that use it; an export nothing uses cannot
     be allowlisted at all. *)
  let export_kept, export_allowed =
    List.partition
      (fun { Rules_typed.finding = { ident; f }; test_users } ->
        let names_a_test j =
          List.exists
            (fun t ->
              contains j (Filename.remove_extension (Filename.basename t)))
            test_users
        in
        not
          (Allow.allowed entries ~rule:f.Check.Finding.rule
             ~file:f.Check.Finding.file ~ident ~justified:names_a_test))
      export_findings
  in
  let raw =
    coverage @ parse_failures @ ast_findings @ interproc_findings
    @ typed_findings @ List.rev missing_cmts
  in
  let kept =
    List.filter
      (fun { Rules_ast.ident; f } ->
        not
          (Allow.allowed entries ~rule:f.Check.Finding.rule
             ~file:f.Check.Finding.file ~ident))
      raw
    @ List.map
        (fun { Rules_typed.finding = { ident; f }; _ } ->
          { Rules_ast.ident; f })
        export_kept
  in
  (* A refused scan matched nothing, so its entries are not stale. *)
  let stale_candidates =
    match exports with
    | Scanned _ -> entries
    | Partial _ ->
      List.filter
        (fun (e : Allow.entry) ->
          not (String.equal e.rule "lint.unused-export"))
        entries
  in
  let findings =
    allow_findings
    @ List.map (fun { Rules_ast.f; _ } -> f) kept
    @ (match exports with Partial f -> [ f ] | Scanned _ -> [])
    @ Allow.stale ~src:!allow_path ~files:(mls @ mlis) stale_candidates
  in

  let ppf = Format.std_formatter in
  List.iter (fun f -> Format.fprintf ppf "%a@." Check.Finding.pp f) findings;
  (match !json_out with
   | None -> ()
   | Some path ->
     let doc =
       Obs.Json.Obj
         [ ("findings", Check.Finding.list_to_json findings) ]
     in
     let out = Obs.Json.to_pretty_string doc in
     if String.equal path "-" then Format.fprintf ppf "%s@." out
     else
       Obs.Atomic_file.write path (fun oc ->
           output_string oc out;
           output_char oc '\n'));
  if !prune_allow then begin
    let dropped = Allow.prune ~src:!allow_path ~files:(mls @ mlis) entries in
    Format.fprintf ppf "lint: pruned %d orphaned allowlist entr%s@." dropped
      (if dropped = 1 then "y" else "ies")
  end;
  let errors = Check.Finding.errors findings in
  Format.fprintf ppf
    "lint: %d file(s), %d hot root(s), %d in closure, %d export(s) scanned \
     (%d flagged, %d allowlisted), %d finding(s), %d error(s)@."
    (List.length mls)
    (List.length (Rules_interproc.roots interproc))
    (Rules_interproc.closure_size interproc)
    exports_scanned
    (List.length export_findings)
    (List.length export_allowed)
    (List.length findings) (List.length errors);
  if !self_test then begin
    let caught rule =
      List.exists (fun f -> String.equal f.Check.Finding.rule rule) findings
    in
    let missed =
      List.filter (fun r -> not (caught r)) self_test_rules
      @ List.filter
          (fun x ->
            not
              (List.exists
                 (fun { Rules_typed.finding = { ident; _ }; _ } ->
                   String.equal ident x)
                 export_findings))
          self_test_exports
    in
    let clean_prefix s =
      String.length s >= 6 && String.equal (String.sub s 0 6) "clean_"
    in
    let leaked =
      (* A seeded-clean function must stay clean, or the analyzer
         over-approximates and would drown the real tree in noise. *)
      List.filter
        (fun { Rules_ast.ident; _ } ->
          List.exists clean_prefix (String.split_on_char '.' ident))
        kept
    in
    List.iter
      (fun r -> Format.fprintf ppf "self-test: seeded %s NOT caught@." r)
      missed;
    List.iter
      (fun { Rules_ast.ident; f } ->
        Format.fprintf ppf "self-test: false positive %s on clean %s@."
          f.Check.Finding.rule ident)
      leaked;
    if missed = [] && leaked = [] then begin
      Format.fprintf ppf
        "self-test: all %d seeded rules and %d seeded exports caught, \
         clean functions clean@."
        (List.length self_test_rules)
        (List.length self_test_exports);
      exit 0
    end
    else exit 1
  end;
  exit (if errors = [] then 0 else 1)
