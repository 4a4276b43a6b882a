(** Tokenizer for the vscheme reader.

    The lexer operates on a whole source string and yields one token per
    call.  It keeps byte offsets only: the start of the last token is
    {!start}, and a line and column are computed by {!position} when an
    error is reported.  Comments ([; ...] to end of line and
    [#| ... |#] block comments, which nest) and whitespace are
    skipped. *)

type token =
  | Lparen
  | Rparen
  | Quote               (** ['] *)
  | Quasiquote          (** [`] *)
  | Unquote             (** [,] *)
  | Unquote_splicing    (** [,@] *)
  | Hash_lparen         (** [#(] — vector open *)
  | Dot
  | Atom of Datum.t     (** boolean, number, character, string or symbol *)
  | Eof

type position = { line : int; column : int }

exception Error of string * position
(** Raised on malformed input, with a message (prefixed by the
    filename) and the position at which the lexer stood when it gave
    up. *)

type t
(** Lexer state over one source string. *)

val create : ?filename:string -> string -> t
(** [create src] is a lexer at the beginning of [src].  [filename] is
    used in error messages only. *)

val next : t -> token
(** Consume and return the next token.  After [Eof] is returned, every
    subsequent call returns [Eof] again.

    @raise Error on malformed input. *)

val start : t -> int
(** Byte offset of the first character of the token {!next} last
    returned. *)

val position : t -> int -> position
(** [position lx off] is the line and column of byte offset [off]:
    lines are counted by ['\n'], both from 1. *)
