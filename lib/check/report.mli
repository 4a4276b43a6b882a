(** The outcome of verifying one file, in the one shape every offline
    verifier prints and serializes: [repro check] (traces, sidecars,
    checkpoints, telemetry documents, serve spools) and
    [repro golden verify].

    Text: every finding on its own line ({!Finding.pp}), then
    [FILE: ok] or [FILE: ok: SUMMARY] for each file without errors.
    JSON: [{"files": [{"file", FIELDS..., "findings"}]}]. *)

type t = {
  file : string;
  ok : string option;  (** the summary after [FILE: ok: ], if any *)
  fields : (string * Obs.Json.t) list;
      (** members between ["file"] and ["findings"] in the JSON *)
  findings : Finding.t list;
}

val passed : t -> bool
(** No error among the findings. *)

val print : Format.formatter -> t list -> unit
(** The findings of every report in order, then the ok line of each
    report that {!passed}. *)

val to_json : t list -> Obs.Json.t
