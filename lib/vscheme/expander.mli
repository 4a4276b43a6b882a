(** Syntactic expansion: surface data to core {!Ast}.

    Implements the derived forms of a practical 1990s Scheme:
    [define] (both value and procedure forms, plus internal defines,
    which expand to [letrec*]), [let] (parallel and named), [let*],
    [letrec], [letrec*], [cond] (with [else] and [=>]), [case], [and],
    [or], [when], [unless], [begin], and [quasiquote]/[unquote]/
    [unquote-splicing] at arbitrary nesting depth.  Quasiquote expands
    into calls of [cons], [append], [list] and [list->vector]. *)

exception Syntax_error of string

val expand_program : Sexp.Datum.t list -> Ast.toplevel list
