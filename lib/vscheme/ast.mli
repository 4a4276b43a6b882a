(** Core abstract syntax, the output of {!Expander}.

    All derived forms ([let*], [letrec], [cond], [case], [and], [or],
    [when], [unless], named [let], [quasiquote], internal [define])
    have been expanded away; only the forms below reach the
    compiler. *)

type expr =
  | Quote of Sexp.Datum.t
      (** literal datum, interned into the static area at link time *)
  | Undefined
      (** the undefined marker; introduced for [letrec] pre-bindings *)
  | Var of string
  | If of expr * expr * expr
  | Set of string * expr
  | Lambda of lambda
  | Call of expr * expr list
  | Seq of expr list  (** non-empty *)
  | Let of (string * expr) list * expr  (** parallel [let] *)

and lambda = {
  name : string;  (** diagnostic name, e.g. the [define]d identifier *)
  params : string list;
  rest : string option;
  body : expr;
}

type toplevel =
  | Define of string * expr
  | Expr of expr
