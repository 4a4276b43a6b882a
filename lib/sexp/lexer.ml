type token =
  | Lparen
  | Rparen
  | Quote
  | Quasiquote
  | Unquote
  | Unquote_splicing
  | Hash_lparen
  | Dot
  | Atom of Datum.t
  | Eof

type position = { line : int; column : int }

exception Error of string * position

type t = {
  src : string;
  len : int;
  filename : string;
  mutable pos : int;
  mutable start : int;  (* offset of the last token's first byte *)
}

let create ?(filename = "<string>") src =
  { src; len = String.length src; filename; pos = 0; start = 0 }

let start lx = lx.start

(* Line and column of an offset, counting lines by '\n' as the reader
   always has; computed only when an error is reported. *)
let position lx off =
  let line = ref 1 and bol = ref 0 in
  for i = 0 to off - 1 do
    if String.unsafe_get lx.src i = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  { line = !line; column = off - !bol + 1 }

let error lx msg =
  raise (Error (Format.sprintf "%s: %s" lx.filename msg, position lx lx.pos))

(* The byte at [i], or '\000' past the end. *)
let char_at lx i = if i < lx.len then String.unsafe_get lx.src i else '\000'

let is_delimiter c =
  match c with
  | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '[' | ']' | '"' | ';' | '\000' ->
    true
  | _ -> false

(* The end of the run of non-delimiters starting at [i]. *)
let rec atom_end lx i =
  if i < lx.len && not (is_delimiter (String.unsafe_get lx.src i)) then
    atom_end lx (i + 1)
  else i

let rec skip_block_comment lx depth =
  let p = lx.pos in
  if p >= lx.len then error lx "unterminated block comment"
  else
    match String.unsafe_get lx.src p, char_at lx (p + 1) with
    | '|', '#' ->
      lx.pos <- p + 2;
      if depth > 1 then skip_block_comment lx (depth - 1)
    | '#', '|' ->
      lx.pos <- p + 2;
      skip_block_comment lx (depth + 1)
    | _ ->
      lx.pos <- p + 1;
      skip_block_comment lx depth

let rec skip_atmosphere lx =
  match char_at lx lx.pos with
  | ' ' | '\t' | '\n' | '\r' ->
    lx.pos <- lx.pos + 1;
    skip_atmosphere lx
  | ';' ->
    lx.pos <-
      (match String.index_from_opt lx.src lx.pos '\n' with
       | Some i -> i
       | None -> lx.len);
    skip_atmosphere lx
  | '#' when char_at lx (lx.pos + 1) = '|' ->
    lx.pos <- lx.pos + 2;
    skip_block_comment lx 1;
    skip_atmosphere lx
  | _ -> ()

let is_digit c = c >= '0' && c <= '9'

let rec has_upper src k j =
  k < j
  && (match String.unsafe_get src k with
      | 'A' .. 'Z' -> true
      | _ -> has_upper src (k + 1) j)

(* Classify the bare atom [src.[i .. j)] as integer, real or symbol,
   per the usual Scheme rule: anything that parses as a number is a
   number.  [int_of_string] needs a digit after an optional sign, so
   only such atoms are offered to it; a symbol is case-folded only
   when it holds an upper-case letter.  The lexer stands at [j]. *)
let classify_atom lx i j =
  let src = lx.src in
  let n = j - i in
  if n = 0 then error lx "empty atom"
  else
    let c0 = String.unsafe_get src i in
    let c1 = if n > 1 then String.unsafe_get src (i + 1) else '\000' in
    let signed = c0 = '+' || c0 = '-' in
    let int_start = is_digit c0 || (signed && is_digit c1) in
    let text = String.sub src i n in
    match if int_start then int_of_string_opt text else None with
    | Some v -> Datum.Int v
    | None ->
      (* Reject symbol-looking things that would also float-parse,
         such as "nan" or "..."; a number needs a digit right after
         any sign or leading period. *)
      let looks_numeric =
        int_start
        || signed && c1 = '.' && n > 2
           && is_digit (String.unsafe_get src (i + 2))
        || (c0 = '.' && is_digit c1)
      in
      if looks_numeric then
        match float_of_string_opt text with
        | Some f -> Datum.Real f
        | None -> error lx (Format.sprintf "malformed number %S" text)
      else
        Datum.Sym
          (if has_upper src i j then String.lowercase_ascii text else text)

(* Called with the lexer on the opening quote. *)
let read_string lx =
  let buf = Buffer.create 16 in
  lx.pos <- lx.pos + 1;
  let rec loop () =
    if lx.pos >= lx.len then error lx "unterminated string literal"
    else
      match String.unsafe_get lx.src lx.pos with
      | '"' -> lx.pos <- lx.pos + 1
      | '\\' ->
        lx.pos <- lx.pos + 1;
        let c =
          match char_at lx lx.pos with
          | 'n' -> '\n'
          | 't' -> '\t'
          | 'r' -> '\r'
          | '\\' -> '\\'
          | '"' -> '"'
          | c -> error lx (Format.sprintf "unknown string escape \\%c" c)
        in
        Buffer.add_char buf c;
        lx.pos <- lx.pos + 1;
        loop ()
      | c ->
        Buffer.add_char buf c;
        lx.pos <- lx.pos + 1;
        loop ()
  in
  loop ();
  Datum.Str (Buffer.contents buf)

(* Called with the lexer just after "#\\".  The first character is
   taken whatever it is; letters may continue into a named one. *)
let read_char lx =
  if lx.pos >= lx.len then error lx "unterminated character literal"
  else begin
    let first = lx.pos in
    let stop = atom_end lx (first + 1) in
    lx.pos <- stop;
    if stop - first = 1 then Datum.Char (String.unsafe_get lx.src first)
    else
      let text = String.sub lx.src first (stop - first) in
      match String.lowercase_ascii text with
      | "space" -> Datum.Char ' '
      | "newline" -> Datum.Char '\n'
      | "tab" -> Datum.Char '\t'
      | "nul" | "null" -> Datum.Char '\000'
      | _ -> error lx (Format.sprintf "unknown character name #\\%s" text)
  end

let next lx =
  skip_atmosphere lx;
  let p = lx.pos in
  lx.start <- p;
  if p >= lx.len then Eof
  else
    match String.unsafe_get lx.src p with
    | '(' | '[' ->
      lx.pos <- p + 1;
      Lparen
    | ')' | ']' ->
      lx.pos <- p + 1;
      Rparen
    | '\'' ->
      lx.pos <- p + 1;
      Quote
    | '`' ->
      lx.pos <- p + 1;
      Quasiquote
    | ',' ->
      if char_at lx (p + 1) = '@' then begin
        lx.pos <- p + 2;
        Unquote_splicing
      end
      else begin
        lx.pos <- p + 1;
        Unquote
      end
    | '"' -> Atom (read_string lx)
    | '#' -> (
      match char_at lx (p + 1) with
      | '(' ->
        lx.pos <- p + 2;
        Hash_lparen
      | 't' | 'f' ->
        let stop = atom_end lx p in
        lx.pos <- stop;
        (match String.sub lx.src p (stop - p) with
         | "#t" | "#true" -> Atom (Datum.Bool true)
         | "#f" | "#false" -> Atom (Datum.Bool false)
         | text -> error lx (Format.sprintf "unknown # syntax %S" text))
      | '\\' ->
        lx.pos <- p + 2;
        Atom (read_char lx)
      | c -> error lx (Format.sprintf "unknown # syntax #%c" c))
    | '.' when is_delimiter (char_at lx (p + 1)) ->
      lx.pos <- p + 1;
      Dot
    | _ ->
      let stop = atom_end lx p in
      lx.pos <- stop;
      Atom (classify_atom lx p stop)
