type t = int

(* Low two bits: 00 fixnum, 01 pointer, 10 immediate.  Immediates use
   bits [3:2] as a subtag: 0 singleton, 1 character. *)

let fixnum n = n lsl 2
let fixnum_val v = v asr 2
let is_fixnum v = v land 3 = 0
let max_fixnum = max_int asr 2
let min_fixnum = min_int asr 2

let imm_singleton k = (k lsl 4) lor 2
let false_v = imm_singleton 0
let true_v = imm_singleton 1
let nil = imm_singleton 2
let unspecified = imm_singleton 3
let eof = imm_singleton 4
let undefined = imm_singleton 5

let bool b = if b then true_v else false_v
let is_truthy v = v <> false_v

let char c = (Char.code c lsl 4) lor 0b0110
let char_val v = Char.chr ((v lsr 4) land 0xff)
let is_char v = v land 0b1111 = 0b0110

let pointer word_addr = (word_addr lsl 2) lor 1
let pointer_val v = v lsr 2
let is_pointer v = v land 3 = 1

type tag =
  | Pair
  | Vector
  | Closure
  | String
  | Symbol
  | Flonum
  | Table
  | Cell
  | Forward
  | Free

let tag_code = function
  | Pair -> 0
  | Vector -> 1
  | Closure -> 2
  | String -> 3
  | Symbol -> 4
  | Flonum -> 5
  | Table -> 6
  | Cell -> 7
  | Forward -> 8
  | Free -> 9

let tag_of_code = function
  | 0 -> Pair
  | 1 -> Vector
  | 2 -> Closure
  | 3 -> String
  | 4 -> Symbol
  | 5 -> Flonum
  | 6 -> Table
  | 7 -> Cell
  | 8 -> Forward
  | 9 -> Free
  | n -> invalid_arg (Printf.sprintf "Value.tag_of_code: %d" n)

let header tag ~len =
  if len < 0 then invalid_arg "Value.header: negative length";
  (len lsl 4) lor tag_code tag

let header_tag h = tag_of_code (h land 0xf)
let header_len h = h lsr 4

let tag_to_string = function
  | Pair -> "pair"
  | Vector -> "vector"
  | Closure -> "closure"
  | String -> "string"
  | Symbol -> "symbol"
  | Flonum -> "flonum"
  | Table -> "table"
  | Cell -> "cell"
  | Forward -> "forward"
  | Free -> "free"

let min_object_words = 2
(* Not Stdlib.max: that is polymorphic, an out-of-line call and a
   generic compare for every object the collectors copy or scan. *)
let object_words h =
  let n = 1 + header_len h in
  if n < min_object_words then min_object_words else n

let pp ppf v =
  if is_fixnum v then Format.pp_print_int ppf (fixnum_val v)
  else if is_pointer v then Format.fprintf ppf "#<ptr@%d>" (pointer_val v)
  else if v = false_v then Format.pp_print_string ppf "#f"
  else if v = true_v then Format.pp_print_string ppf "#t"
  else if v = nil then Format.pp_print_string ppf "()"
  else if v = unspecified then Format.pp_print_string ppf "#<unspecified>"
  else if v = eof then Format.pp_print_string ppf "#<eof>"
  else if v = undefined then Format.pp_print_string ppf "#<undefined>"
  else if is_char v then Format.fprintf ppf "#\\%c" (char_val v)
  else Format.fprintf ppf "#<immediate:%d>" v
