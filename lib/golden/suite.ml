let manifest_path ~dir = Filename.concat dir "manifest.sexp"
let fixture_path ~dir name = Filename.concat dir (name ^ ".sexp")

type verification = {
  run : Manifest.run;
  fixture : string;
  expected : Fixture.t option;
  actual : Fixture.t option;
  findings : Check.Finding.t list;
}

let passed v = not (Check.Finding.has_errors v.findings)

let report v =
  { Check.Report.file = v.fixture;
    ok =
      Option.map
        (fun a ->
          Printf.sprintf "%d events, %d caches pinned" a.Fixture.trace_events
            (List.length a.Fixture.caches))
        v.actual;
    fields =
      [ ("run", Obs.Json.Str v.run.Manifest.name);
        ("passed", Obs.Json.Bool (passed v))
      ];
    findings = v.findings
  }

let record ?(manifest = Manifest.default) ~dir ppf =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Manifest.save manifest (manifest_path ~dir);
  Format.fprintf ppf "wrote %s (%d runs)@." (manifest_path ~dir)
    (List.length manifest.Manifest.runs);
  List.iter
    (fun (run : Manifest.run) ->
      let t0 = Unix.gettimeofday () in
      let fx = Fixture.measure run in
      let path = fixture_path ~dir run.Manifest.name in
      Fixture.save fx path;
      Format.fprintf ppf
        "recorded %-14s %9d events, %2d collections, %d caches  (%.1fs)  -> \
         %s@."
        run.Manifest.name fx.Fixture.trace_events fx.Fixture.collections
        (List.length fx.Fixture.caches)
        (Unix.gettimeofday () -. t0)
        path)
    manifest.Manifest.runs

let verify ~dir ppf =
  let manifest_file = manifest_path ~dir in
  match Manifest.load manifest_file with
  | exception Sx.Parse_error msg ->
    let f =
      Check.Finding.v ~rule:"golden.manifest" ~file:manifest_file
        (Printf.sprintf
           "cannot load the golden manifest: %s (run `repro golden record` \
            to create the suite)"
           msg)
    in
    Format.fprintf ppf "%a@." Check.Finding.pp f;
    let placeholder =
      match Manifest.default.Manifest.runs with
      | r :: _ -> r
      | [] -> assert false
    in
    [ { run = placeholder;
        fixture = manifest_file;
        expected = None;
        actual = None;
        findings = [ f ]
      }
    ]
  | manifest ->
    List.map
      (fun (run : Manifest.run) ->
        let fixture = fixture_path ~dir run.Manifest.name in
        let v =
          match Fixture.load fixture with
          | exception Sx.Parse_error msg ->
            { run;
              fixture;
              expected = None;
              actual = None;
              findings =
                [ Check.Finding.v ~rule:"golden.fixture" ~file:fixture
                    (Printf.sprintf "cannot load the fixture: %s" msg)
                ]
            }
          | expected -> (
            match Fixture.measure run with
            | exception e ->
              { run;
                fixture;
                expected = Some expected;
                actual = None;
                findings =
                  [ Check.Finding.v ~rule:"golden.measure" ~file:fixture
                      (Printf.sprintf "run %S crashed: %s" run.Manifest.name
                         (Printexc.to_string e))
                  ]
              }
            | actual ->
              { run;
                fixture;
                expected = Some expected;
                actual = Some actual;
                findings = Fixture.compare ~file:fixture ~expected ~actual ()
              })
        in
        Check.Report.print ppf [ report v ];
        (let errors = List.length (Check.Finding.errors v.findings) in
         if errors > 0 then
           Format.fprintf ppf "%s: FAILED (%d finding%s)@." v.fixture errors
             (if errors = 1 then "" else "s"));
        v)
      manifest.Manifest.runs

(* --- Reporting ---------------------------------------------------------- *)

let pct x = Printf.sprintf "%.2f%%" (100.0 *. x)

let summary_markdown ppf vs =
  Format.fprintf ppf "### Golden regression suite@.@.";
  Format.fprintf ppf
    "| run | events | collections | miss ratio (smallest cache) | O_cache \
     slow | status |@.";
  Format.fprintf ppf "|---|---:|---:|---|---|---|@.";
  List.iter
    (fun v ->
      let name = v.run.Manifest.name in
      let cell f =
        match (v.expected, v.actual) with
        | Some e, Some a ->
          let xe = f e and xa = f a in
          if xe = xa then xe else Printf.sprintf "%s -> **%s**" xe xa
        | Some e, None -> f e ^ " -> ?"
        | None, _ -> "?"
      in
      let first_cache g fx =
        match fx.Fixture.caches with
        | c :: _ -> g c
        | [] -> "-"
      in
      Format.fprintf ppf "| %s | %s | %s | %s | %s | %s |@." name
        (cell (fun fx -> string_of_int fx.Fixture.trace_events))
        (cell (fun fx -> string_of_int fx.Fixture.collections))
        (cell
           (first_cache (fun c -> Printf.sprintf "%.4f" c.Fixture.miss_ratio)))
        (cell (first_cache (fun c -> pct c.Fixture.overhead_slow)))
        (if passed v then "ok"
         else
           Printf.sprintf "**FAIL** (%d)"
             (List.length (Check.Finding.errors v.findings))))
    vs;
  let failed = List.filter (fun v -> not (passed v)) vs in
  if failed <> [] then begin
    Format.fprintf ppf "@.<details><summary>%d failing run%s</summary>@.@."
      (List.length failed)
      (if List.length failed = 1 then "" else "s");
    List.iter
      (fun v ->
        List.iter
          (fun f -> Format.fprintf ppf "- `%a`@." Check.Finding.pp f)
          (Check.Finding.errors v.findings))
      failed;
    Format.fprintf ppf "@.</details>@."
  end
