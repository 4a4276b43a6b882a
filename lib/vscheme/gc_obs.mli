(** Collector telemetry shared by the four collectors.

    Metrics live in {!Obs.Metrics.default} under the [gc.*] namespace;
    registration is idempotent, so each collector module can reference
    the same counters.  Collection spans go to the owning heap's
    timeline (see {!Heap.set_telemetry}) as ["gc.collection"]
    Begin/End pairs tagged with the collector name and the
    minor/major/full kind. *)

val collections : Obs.Metrics.Counter.t
val minor_collections : Obs.Metrics.Counter.t
val major_collections : Obs.Metrics.Counter.t
val words_copied : Obs.Metrics.Counter.t
val objects_copied : Obs.Metrics.Counter.t
val words_promoted : Obs.Metrics.Counter.t
val words_swept : Obs.Metrics.Counter.t

val instrumented :
  Heap.t ->
  collector:string ->
  kind:string ->
  occupancy_words:int ->
  (unit -> (string * Obs.Events.arg) list) ->
  unit
(** [instrumented heap ~collector ~kind ~occupancy_words f] emits the
    collection Begin event, runs [f], and emits the End event carrying
    the args [f] returns, bumping [collections] and observing the
    pause length in collector instructions.  If [f] raises, the End
    event carries an ["error"] arg and the exception is re-raised. *)
