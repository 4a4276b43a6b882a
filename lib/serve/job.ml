(* One submitted sweep job.  The mutable fields are owned by the
   scheduler and only written under its mutex; readers outside the
   scheduler always go through a snapshot (Job.to_json under the same
   mutex). *)

type state =
  | Queued
  | Running of int
  | Done
  | Failed of string
  | Cancelled

type t = {
  id : int;
  name : string;
  hash : string;
  run : Golden.Manifest.run;
  run_text : string;
  mutable state : state;
  mutable cached : bool;
  mutable attempts : int;
  mutable resumed : bool;
  mutable cancel_requested : bool;
  submitted_at : float;
  mutable finished_at : float option;
}

let make ~id ~now ~run ~hash ~run_text =
  { id;
    name = run.Golden.Manifest.name;
    hash;
    run;
    run_text;
    state = Queued;
    cached = false;
    attempts = 0;
    resumed = false;
    cancel_requested = false;
    submitted_at = now;
    finished_at = None
  }

let terminal j =
  match j.state with
  | Done | Failed _ | Cancelled -> true
  | Queued | Running _ -> false

let state_string j =
  match j.state with
  | Queued -> "queued"
  | Running _ -> "running"
  | Done -> "done"
  | Failed _ -> "failed"
  | Cancelled -> "cancelled"

let latency_ms ~now j =
  match j.finished_at with
  | Some t -> (t -. j.submitted_at) *. 1000.0
  | None -> (now -. j.submitted_at) *. 1000.0

let to_json ~now j =
  Obs.Json.Obj
    ([ ("job", Obs.Json.Int j.id);
       ("name", Obs.Json.Str j.name);
       ("hash", Obs.Json.Str j.hash);
       ("state", Obs.Json.Str (state_string j));
       ("cached", Obs.Json.Bool j.cached);
       ("resumed", Obs.Json.Bool j.resumed);
       ("attempts", Obs.Json.Int j.attempts);
       ("latency_ms", Obs.Json.Float (latency_ms ~now j))
     ]
     @ (match j.state with
        | Running w -> [ ("worker", Obs.Json.Int w) ]
        | _ -> [])
     @
     match j.state with
     | Failed msg -> [ ("error", Obs.Json.Str msg) ]
     | _ -> [])
