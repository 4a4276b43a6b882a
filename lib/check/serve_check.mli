(** Static verification of a serve daemon's spool directory (the
    [--dir] of [repro serve]) without a running daemon.

    Journal rules ([journal.jsonl]):
    - [serve.journal.io] — unreadable, or the directory has no journal;
    - [serve.journal.json] — an unparseable line before the end of the
      file (a torn {e final} line is the expected residue of a kill
      and only warns as [serve.journal.torn]);
    - [serve.journal.fields] — an event missing its required fields
      (every event needs a string ["ev"], integer ["job"] and numeric
      ["t"]; ["submitted"] needs the manifest ["run"] text, ["started"]
      a boolean ["resumed"], ["done"] a boolean ["cached"]);
    - [serve.journal.order] — a per-job event sequence the scheduler
      cannot produce (started before submitted, events after a
      terminal state, requeued while not running, ...);
    - [serve.journal.kind] — warning: unknown event kind;
    - [serve.journal.dangling] — warning: a job left non-terminal at
      the end of the journal (what a killed daemon leaves; a restart
      recovers it).

    Store rules:
    - [serve.result.name] / [serve.result.tmp] — result-store entries
      that are not [<32-hex-hash>.sexp] (the leftover temporary of an
      interrupted {!Obs.Atomic_file.write}, by
      {!Obs.Atomic_file.is_temp}, only warns);
    - [serve.ckpt.name] / [serve.ckpt.tmp] — checkpoint-store entries
      that are not [job-<id>.ckpt] (a leftover temporary only warns);
    - [serve.ckpt.orphan] — warning: a checkpoint for a job the
      journal records as terminal;
    - plus every {!Ckpt_check} rule, applied to each checkpoint body.

    The rule that a stored fixture's content re-hashes to its file
    name needs the golden library and composes at the CLI level
    ([repro check]). *)

type result = {
  dir : string;
  events : int;        (** parseable journal events *)
  jobs : int;          (** distinct job ids seen *)
  dangling : int;      (** jobs left non-terminal *)
  results : int;       (** entries in the result store *)
  checkpoints : int;   (** well-named checkpoint files *)
  resumed : (int * string) list;
      (** jobs with a ["started"] event flagged [resumed] and a
          ["done"] event not [cached], in id order, each with its
          ["submitted"] manifest text: the ones that finished by
          sweeping on from a checkpoint *)
  findings : Finding.t list;
}

val scan : string -> result
(** Verify one spool directory.  Never raises: I/O problems become
    findings. *)

val report : result -> Report.t
(** The ok summary and the JSON fields carry the journal and store
    counts. *)
