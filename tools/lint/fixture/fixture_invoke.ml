(* Invokes fixture_cli.ml's `db show' the way a benchmark starts a
   program: lint.cli-untested reads this array literal as a command
   line. *)
let argv fixture_cli = [| fixture_cli; "db"; "show" |]
