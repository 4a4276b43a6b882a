(** Run one job to a fixture via the resumable sweep path. *)

exception Cancelled
(** Raised from the progress callback to abandon a sweep whose job has
    been cancelled; propagates out of {!run}. *)

val run :
  store:Store.t ->
  checkpoint_every:int option ->
  progress:(int -> unit) ->
  Job.t ->
  Golden.Fixture.t
(** Measure the job's manifest run, checkpointing into the store's
    [ckpt/job-<id>.ckpt]; if that file exists (a previous attempt was
    killed) the sweep resumes from it.  [progress] observes the replay
    cursor; raising from it abandons the measurement. *)
