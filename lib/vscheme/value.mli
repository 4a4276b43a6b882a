(** Tagged value encoding for the vscheme runtime.

    A value is one OCaml [int] whose low two bits select a
    representation, echoing the pointer tagging of 1990s Scheme
    systems (T, Scheme-48, MacScheme):

    - [..00] — fixnum, payload in the upper bits;
    - [..01] — pointer, payload is a simulated-memory {e word} address;
    - [..10] — immediate: [#f], [#t], [()], the unspecified value, the
      end-of-file object, the "undefined" marker used for unbound
      globals and uninitialized cells, or a character.

    Heap object layouts are defined by {!Layout}-style helpers here:
    every object starts with a one-word header packing a {!tag} and a
    payload length in words. *)

type t = int
(** An encoded Scheme value. *)

(** {1 Immediates} *)

val fixnum : int -> t
(** Encode a fixnum.  Values outside [min_fixnum, max_fixnum] wrap. *)

val fixnum_val : t -> int
val is_fixnum : t -> bool
val min_fixnum : int
val max_fixnum : int

val false_v : t
val true_v : t
val nil : t
val unspecified : t
val eof : t
val undefined : t
(** Marker stored in unbound global cells and empty hash-table slots;
    never the result of a correct program expression. *)

val bool : bool -> t

val char : char -> t
val char_val : t -> char
val is_char : t -> bool

(** {1 Pointers} *)

val pointer : int -> t
(** [pointer word_addr] encodes a pointer to the given simulated word
    address. *)

val pointer_val : t -> int
(** The word address held in a pointer.  Unchecked. *)

val is_pointer : t -> bool

(** {1 Object headers} *)

type tag =
  | Pair
  | Vector
  | Closure
  | String
  | Symbol
  | Flonum
  | Table
  | Cell       (** one-slot box introduced by assignment conversion *)
  | Forward    (** from-space corpse left by a copying collector *)
  | Free       (** free-list block in the mark-sweep heap *)

val header : tag -> len:int -> int
(** Header word for an object whose payload is [len] words. *)

val header_tag : int -> tag
val header_len : int -> int

val tag_to_string : tag -> string

val object_words : int -> int
(** [object_words header] is the total allocation footprint in words
    of the object carrying [header], i.e. [max min_object_words
    (1 + header_len header)]. *)

val pp : Format.formatter -> t -> unit
(** Shallow printer: immediates in full, pointers as ["#<tag@addr>"]
    without dereferencing (printing heap structure requires a heap and
    lives in {!Machine}). *)
