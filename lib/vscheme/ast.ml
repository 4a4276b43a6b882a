type expr =
  | Quote of Sexp.Datum.t
  | Undefined
  | Var of string
  | If of expr * expr * expr
  | Set of string * expr
  | Lambda of lambda
  | Call of expr * expr list
  | Seq of expr list
  | Let of (string * expr) list * expr

and lambda = {
  name : string;
  params : string list;
  rest : string option;
  body : expr;
}

type toplevel =
  | Define of string * expr
  | Expr of expr
