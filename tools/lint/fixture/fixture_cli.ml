(* Seed for lint.cli-untested: a command line that fixture_cli.sh
   and fixture_invoke.ml invoke in part.  The rule must flag exactly
   the command `fixture_cli db drop', the flag --untested and the
   short flag -q, whose only uses are on lines that do not invoke the
   program (`echo', `grep -q'); every other command and flag is
   invoked and must stay clean. *)

open Cmdliner

let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Say more")
let untested = Arg.(value & flag & info [ "untested" ] ~doc:"Never invoked")
let quiet = Arg.(value & flag & info [ "q" ] ~doc:"Say less")

let run_cmd =
  Cmd.v (Cmd.info "run" ~doc:"Run")
    Term.(const (fun _ _ _ -> ()) $ verbose $ untested $ quiet)

let db_cmd =
  let show = Cmd.v (Cmd.info "show" ~doc:"Show") Term.(const ()) in
  let drop = Cmd.v (Cmd.info "drop" ~doc:"Drop") Term.(const ()) in
  Cmd.group (Cmd.info "db" ~doc:"Database") [ show; drop ]

let main = Cmd.group (Cmd.info "fixture_cli" ~doc:"Fixture") [ run_cmd; db_cmd ]
