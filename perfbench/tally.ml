(* Attempted and failed operations.  A failed output check or an
   exception marks one operation failed; the run goes on. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable messages : string list;  (** newest first, at most [keep] *)
}

let keep = 20

let create () = { attempted = 0; failed = 0; messages = [] }

let record t ~what outcome =
  t.attempted <- t.attempted + 1;
  match outcome with
  | Ok () -> ()
  | Error msg ->
    t.failed <- t.failed + 1;
    if List.length t.messages < keep then
      t.messages <- Printf.sprintf "%s: %s" what msg :: t.messages

let messages t = List.rev t.messages
