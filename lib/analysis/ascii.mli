(** Minimal character-cell canvas for rendering the paper's figures in
    a terminal. *)

type canvas

val create : rows:int -> cols:int -> canvas
(** A blank canvas; row 0 is the top line. *)

val set : canvas -> row:int -> col:int -> char -> unit
(** Out-of-range coordinates are ignored, so callers can plot clipped
    data without pre-checking. *)

val render :
  Format.formatter -> ?row_labels:(int -> string) -> canvas -> unit
(** Print the canvas top to bottom; [row_labels] supplies a left-margin
    label per row (padded to a common width). *)
