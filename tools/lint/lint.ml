(* repro-lint: project-specific static analysis over lib/ and bin/.

   Two passes share one diagnostic stream:

   - a Parsetree pass parses every source directly (interface
     coverage, Obj, partial stdlib calls, hot-path allocation rules);
   - a Typedtree pass reads the .cmt files dune already produced
     (polymorphic comparison in hot-path modules, and the domain-race
     audit over Domain.spawn captures) — run `dune build' first.

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
   real tree and succeeds iff the interprocedural rules catch every
   seeded bug (negative self-test of the analyzer).
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

(* Map each scanned source to its .cmt, via cmt_sourcefile: dune
   records the context-relative path, which is exactly how we name
   sources. *)
let cmt_index () =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun cmt_path ->
      match Cmt_format.read_cmt cmt_path with
      | exception _ -> ()
      | infos -> (
        match
          (infos.Cmt_format.cmt_sourcefile, infos.Cmt_format.cmt_annots)
        with
        | Some src, Cmt_format.Implementation str ->
          Hashtbl.replace tbl src str
        | _ -> ()))
    (sources_under build_root ~ext:".cmt");
  tbl

(* --- Driver -------------------------------------------------------------- *)

let fixture_root = "tools/lint/fixture"

(* Rules the fixture seeds; --self-test fails if any goes uncaught. *)
let self_test_rules =
  [ "lint.hot-alloc-deep"; "lint.hot-partial-app"; "lint.hot-write-barrier";
    "lint.global-registry" ]

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

  let cmts = cmt_index () in
  let typed_findings, missing_cmts =
    List.fold_left
      (fun (fs, missing) (ml, _) ->
        match Hashtbl.find_opt cmts ml with
        | Some str ->
          (fs @ Rules_typed.scan ~file:ml ~shapes ~in_closure str, missing)
        | None ->
          ( fs,
            { Rules_ast.ident = "cmt";
              f =
                Check.Finding.v ~severity:Check.Finding.Warning
                  ~rule:"lint.no-cmt" ~file:ml
                  "no .cmt under _build/default (stale build?); typed \
                   rules skipped — run `dune build' first"
            }
            :: missing ))
      ([], []) parsed
  in
  let typed_findings =
    List.map
      (fun { Rules_typed.ident; f } -> { Rules_ast.ident; f })
      typed_findings
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
  in
  let findings =
    allow_findings
    @ List.map (fun { Rules_ast.f; _ } -> f) kept
    @ Allow.stale ~src:!allow_path ~files:mls entries
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
     else begin
       let oc = open_out path in
       Fun.protect
         ~finally:(fun () -> close_out oc)
         (fun () ->
           output_string oc out;
           output_char oc '\n')
     end);
  if !prune_allow then begin
    let dropped = Allow.prune ~src:!allow_path ~files:mls entries in
    Format.fprintf ppf "lint: pruned %d orphaned allowlist entr%s@." dropped
      (if dropped = 1 then "y" else "ies")
  end;
  let errors = Check.Finding.errors findings in
  Format.fprintf ppf
    "lint: %d file(s), %d hot root(s), %d in closure, %d finding(s), %d \
     error(s)@."
    (List.length mls)
    (List.length (Rules_interproc.roots interproc))
    (Rules_interproc.closure_size interproc)
    (List.length findings) (List.length errors);
  if !self_test then begin
    let caught rule =
      List.exists (fun f -> String.equal f.Check.Finding.rule rule) findings
    in
    let missed = List.filter (fun r -> not (caught r)) self_test_rules in
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
        "self-test: all %d seeded rules caught, clean functions clean@."
        (List.length self_test_rules);
      exit 0
    end
    else exit 1
  end;
  exit (if errors = [] then 0 else 1)
