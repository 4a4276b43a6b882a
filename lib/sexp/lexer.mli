(** Tokenizer for the vscheme reader.

    The lexer operates on a whole source string and yields one token per
    call, tracking line/column positions for error reporting.  Comments
    ([; ...] to end of line and [#| ... |#] block comments, which nest)
    and whitespace are skipped. *)

type token =
  | Lparen
  | Rparen
  | Quote               (** ['] *)
  | Quasiquote          (** [`] *)
  | Unquote             (** [,] *)
  | Unquote_splicing    (** [,@] *)
  | Hash_lparen         (** [#(] — vector open *)
  | Dot
  | Atom_bool of bool
  | Atom_int of int
  | Atom_real of float
  | Atom_char of char
  | Atom_string of string
  | Atom_sym of string
  | Eof

type position = { line : int; column : int }

exception Error of string * position
(** Raised on malformed input, with a message and the position at which
    the offending token started. *)

type t
(** Lexer state over one source string. *)

val create : ?filename:string -> string -> t
(** [create src] is a lexer at the beginning of [src].  [filename] is
    used in error messages only. *)

val next : t -> token * position
(** Consume and return the next token.  After [Eof] is returned, every
    subsequent call returns [Eof] again.

    @raise Error on malformed input. *)
