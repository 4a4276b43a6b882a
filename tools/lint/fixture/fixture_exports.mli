(* Seeded exports for the lint.unused-export self-test: one value
   another unit uses, one only its own unit uses, one nobody uses. *)

val clean_shared : int -> int
(** Used by {!Lint_fixture}: a real export, must stay unflagged. *)

val own_only : int -> int
(** Seed 5a — used only inside this unit, so the export is flagged. *)

val unused : int -> int
(** Seed 5b — used by nobody, so the export is flagged. *)
