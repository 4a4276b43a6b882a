(* Small adapter so the CLI can run a workload with one cache level
   attached. *)

let run ~gc ~level ?events ?scale w =
  Core.Runner.run ~gc ?events ?scale ~sinks:[ Memsim.Level.sink level ] w
