(** The experiment registry: every table and figure of the paper.

    Each experiment prints, on a formatter, the reproduction of one
    paper artifact together with the paper's expectation for its
    shape.  EXPERIMENTS.md records measured-vs-paper for a full
    run. *)

type t = {
  id : string;           (** e.g. ["F1"], ["T5"] *)
  title : string;
  paper_artifact : string;
      (** which table/figure of the paper this regenerates *)
  run : Format.formatter -> unit;
}

val all : t list
(** In presentation order: the paper's sixteen artifacts T1, T2, F1,
    T3, T4, F2, T5, T6, F3, F4, T7, T8, F5, F6, F7, F8, then the
    ablation extensions A1 (collector families), A2 (busy-block
    placement), A3 (associativity) and A4 (two-level hierarchy). *)

val find : string -> t option
(** Case-insensitive lookup by id. *)
