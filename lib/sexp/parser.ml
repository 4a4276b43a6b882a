exception Error of string * Lexer.position

(* Syntactic errors are located at the start of a token, given as an
   offset; its line and column are computed only here. *)
let fail lx off msg = raise (Error (msg, Lexer.position lx off))

let shorthand name d = Datum.Cons (Datum.Sym name, Datum.Cons (d, Datum.Nil))

(* [parse_datum lx tok] reads the datum that begins with [tok], the
   token [Lexer.next] just returned. *)
let rec parse_datum lx (tok : Lexer.token) =
  match tok with
  | Lexer.Atom d -> d
  | Lexer.Lparen -> parse_list lx (Lexer.start lx) ~first:true
  | Lexer.Hash_lparen -> parse_vector lx (Lexer.start lx) []
  | Lexer.Quote -> shorthand "quote" (parse_next lx)
  | Lexer.Quasiquote -> shorthand "quasiquote" (parse_next lx)
  | Lexer.Unquote -> shorthand "unquote" (parse_next lx)
  | Lexer.Unquote_splicing -> shorthand "unquote-splicing" (parse_next lx)
  | Lexer.Eof -> fail lx (Lexer.start lx) "unexpected end of input"
  | Lexer.Rparen -> fail lx (Lexer.start lx) "unexpected `)'"
  | Lexer.Dot -> fail lx (Lexer.start lx) "unexpected `.'"

and parse_next lx = parse_datum lx (Lexer.next lx)

(* The rest of a list opened at offset [open_at]; [first] holds until
   its first element is read. *)
and parse_list lx open_at ~first =
  match Lexer.next lx with
  | Lexer.Rparen -> Datum.Nil
  | Lexer.Eof -> fail lx open_at "unterminated list"
  | Lexer.Dot ->
    if first then fail lx (Lexer.start lx) "`.' with no preceding datum";
    let tail = parse_next lx in
    (match Lexer.next lx with
     | Lexer.Rparen -> ()
     | _ -> fail lx (Lexer.start lx) "expected `)' after dotted tail");
    tail
  | ( Lexer.Atom _ | Lexer.Lparen | Lexer.Hash_lparen | Lexer.Quote
    | Lexer.Quasiquote | Lexer.Unquote | Lexer.Unquote_splicing ) as tok ->
    let d = parse_datum lx tok in
    Datum.Cons (d, parse_list lx open_at ~first:false)

and parse_vector lx open_at acc =
  match Lexer.next lx with
  | Lexer.Rparen -> Datum.Vec (Array.of_list (List.rev acc))
  | Lexer.Eof -> fail lx open_at "unterminated vector"
  | Lexer.Dot -> fail lx (Lexer.start lx) "`.' not allowed in vector"
  | ( Lexer.Atom _ | Lexer.Lparen | Lexer.Hash_lparen | Lexer.Quote
    | Lexer.Quasiquote | Lexer.Unquote | Lexer.Unquote_splicing ) as tok ->
    let d = parse_datum lx tok in
    parse_vector lx open_at (d :: acc)

(* A lexical error leaves the reader as this module's [Error], with
   the lexer's message and position. *)
let reading f =
  try f () with Lexer.Error (msg, pos) -> raise (Error (msg, pos))

let parse_all ?filename src =
  let lx = Lexer.create ?filename src in
  let rec loop acc =
    match Lexer.next lx with
    | Lexer.Eof -> List.rev acc
    | tok -> loop (parse_datum lx tok :: acc)
  in
  reading (fun () -> loop [])

let parse_one ?filename src =
  let lx = Lexer.create ?filename src in
  reading (fun () ->
      let d = parse_next lx in
      (match Lexer.next lx with
       | Lexer.Eof -> ()
       | _ -> fail lx (Lexer.start lx) "trailing data after datum");
      d)
