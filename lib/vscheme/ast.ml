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

let assigned_vars expr =
  let assigned = Hashtbl.create 16 in
  let rec go e =
    match e with
    | Quote _ | Undefined | Var _ -> ()
    | If (c, t, f) ->
      go c;
      go t;
      go f
    | Set (x, e) ->
      Hashtbl.replace assigned x ();
      go e
    | Lambda { body; _ } -> go body
    | Call (f, args) ->
      go f;
      List.iter go args
    | Seq es -> List.iter go es
    | Let (bindings, body) ->
      List.iter (fun (_, init) -> go init) bindings;
      go body
  in
  go expr;
  assigned
