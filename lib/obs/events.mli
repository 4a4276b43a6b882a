(** Structured event timeline.

    A timeline records GC lifecycle events (collection begin/end with
    bytes copied, survivor ratios, occupancies), experiment phase
    markers, and counter samples, each stamped with a logical
    timestamp.  The VM points the clock at its simulated instruction
    counter, so event times line up with the paper's instruction-based
    cost model rather than host wall time.

    Emission is unconditional on a timeline; "telemetry off" is
    represented by not having a timeline at all (an [option] at each
    instrumentation site), so the disabled path is a single branch.

    Two machine-readable exports:
    - JSONL, one event object per line (diffable, streams, round-trips
      through {!of_jsonl_string});
    - the Chrome trace-event JSON object format, loadable in
      [chrome://tracing] or Perfetto. *)

type arg =
  | I of int
  | F of float
  | S of string

type kind =
  | Instant  (** point event *)
  | Begin    (** span open — pair with a later [End] of the same name *)
  | End
  | Sample   (** counter sample; args hold the sampled values *)

type event = {
  ts : int;               (** logical time (simulated instructions) *)
  name : string;
  cat : string;           (** category, e.g. ["gc"], ["phase"] *)
  kind : kind;
  args : (string * arg) list;
}

type timeline

val create : unit -> timeline
(** New empty timeline.  Until {!set_clock}, timestamps are a private
    sequence number (1, 2, ...). *)

val set_clock : timeline -> (unit -> int) -> unit

val emit :
  timeline ->
  ?ts:int ->
  ?cat:string ->
  ?args:(string * arg) list ->
  kind ->
  string ->
  unit

val instant :
  timeline -> ?ts:int -> ?cat:string -> ?args:(string * arg) list -> string -> unit

val span_begin :
  timeline -> ?ts:int -> ?cat:string -> ?args:(string * arg) list -> string -> unit

val span_end :
  timeline -> ?ts:int -> ?cat:string -> ?args:(string * arg) list -> string -> unit

val sample :
  timeline -> ?ts:int -> ?cat:string -> ?args:(string * arg) list -> string -> unit

val length : timeline -> int
val get : timeline -> int -> event
val events : timeline -> event list
val iter : timeline -> (event -> unit) -> unit

(** {1 JSONL} *)

val event_to_json : event -> Json.t
val event_of_json : Json.t -> (event, string) result
val to_jsonl_string : timeline -> string

val of_jsonl_string : string -> (event list, string) result
(** Blank lines are skipped; the first malformed line fails the whole
    parse with its line number. *)

(** {1 Chrome trace-event format} *)

val to_chrome_trace : timeline -> Json.t
val write_chrome_trace : timeline -> string -> unit
