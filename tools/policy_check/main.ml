(* policy_check — exhaustive small-scope model checker for the
   Memsim.Level replacement policies.  Verifies, for every policy at
   associativity 1, 2, 4 and 8, the properties the chunk loops
   exploit — the direct-mapped loop at one way, the fused span above
   — and writes a machine-readable certificate for CI.

     main.exe [--json FILE] [--ways LIST] [--budget N]
              [--mutate ID [--expect-findings]] [-q]

   --mutate seeds a known bug into the reference spec; with
   --expect-findings the run succeeds iff the checker catches it
   (negative self-test of the checker). *)

let default_ways = [ 1; 2; 4; 8 ]

let () =
  let json_out = ref None in
  let ways = ref default_ways in
  let budget = ref 4000 in
  let mutate = ref None in
  let expect_findings = ref false in
  let quiet = ref false in
  let set_ways s =
    ways :=
      String.split_on_char ',' s
      |> List.map (fun w ->
             match int_of_string_opt (String.trim w) with
             | Some n when n >= 1 && n <= 32 -> n
             | _ -> raise (Arg.Bad ("bad associativity " ^ w)))
  in
  let set_mutate s =
    match Policy_check.Spec.mutation_of_label s with
    | Some m -> mutate := Some m
    | None ->
      raise
        (Arg.Bad
           (Printf.sprintf "unknown mutation %s (one of: %s)" s
              (String.concat ", "
                 (List.map Policy_check.Spec.mutation_label
                    Policy_check.Spec.all_mutations))))
  in
  Arg.parse
    [
      ( "--json",
        Arg.String (fun s -> json_out := Some s),
        "FILE write the certificate as JSON" );
      ("--ways", Arg.String set_ways, "LIST associativities to check (1,2,4,8)");
      ( "--budget",
        Arg.Set_int budget,
        "N sequence-differential node budget per configuration (4000)" );
      ( "--mutate",
        Arg.String set_mutate,
        "ID seed a known spec bug (negative self-test)" );
      ( "--expect-findings",
        Arg.Set expect_findings,
        " succeed iff the checker reports findings" );
      ("-q", Arg.Set quiet, " findings and summary only");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "policy_check [options]";
  let reports =
    List.concat_map
      (fun policy ->
        List.map
          (fun w ->
            let r =
              Policy_check.Model.check ?mutate:!mutate ~budget:!budget policy
                ~ways:w
            in
            if not !quiet then
              Printf.printf
                "%-10s ways=%d  states=%-6d transitions=%-6d sequences=%-6d \
                 events=%-7d findings=%d\n%!"
                (Memsim.Level.policy_label policy)
                w r.Policy_check.Model.states r.Policy_check.Model.transitions
                r.Policy_check.Model.sequences r.Policy_check.Model.events
                (List.length r.Policy_check.Model.findings);
            r)
          !ways)
      Memsim.Level.all_policies
  in
  let findings =
    List.concat_map (fun r -> r.Policy_check.Model.findings) reports
  in
  List.iter
    (fun f -> Format.printf "%a@." Check.Finding.pp f)
    findings;
  (match !json_out with
  | None -> ()
  | Some path ->
    Obs.Atomic_file.write path (fun oc ->
        output_string oc
          (Obs.Json.to_pretty_string (Policy_check.Model.certificate reports));
        output_char oc '\n'));
  let errors = Check.Finding.has_errors findings in
  if !expect_findings then
    if errors then begin
      Printf.printf
        "policy_check: seeded mutation caught (%d finding(s)) — checker is \
         alive\n"
        (List.length (Check.Finding.errors findings));
      exit 0
    end
    else begin
      prerr_endline
        "policy_check: seeded mutation produced NO findings — checker is \
         blind";
      exit 1
    end
  else begin
    Printf.printf "policy_check: %d configuration(s), %d finding(s)\n"
      (List.length reports) (List.length findings);
    exit (if errors then 1 else 0)
  end
