type instr =
  | Imm of Value.t
  | Const of int
  | Local of int
  | Set_local of int
  | Free of int
  | Global of int
  | Set_global of int
  | Make_closure of int
  | Call of int
  | Tail_call of int
  | Return
  | Jump of int
  | Jump_if_false of int
  | Pop
  | Slide of int
  | Make_cell
  | Cell_ref
  | Cell_set
  | Prim of int * int
  | Apply of int
  | Tail_apply of int

type capture =
  | Cap_local of int
  | Cap_free of int

type body = {
  instrs : instr array;
  captures : capture array;
  mutable const_base : int;
  nconsts : int;
}

type kind =
  | Bytecode of body
  | Primitive of int

type code = {
  id : int;
  name : string;
  arity : int;
  has_rest : bool;
  kind : kind;
}

let nparams code = code.arity + if code.has_rest then 1 else 0

(* One bytecode operation stands for the several MIPS instructions a
   native compiler of the paper's era would emit for it (address
   arithmetic, tag checks, the operation itself).  The charges below
   are calibrated so that the whole system's data references per
   instruction land near the paper's ratio of ~0.27 (§3 table). *)
let instr_cost = function
  | Imm _ -> 3
  | Const _ -> 3
  | Local _ -> 4
  | Set_local _ -> 4
  | Free _ -> 6
  | Global _ -> 4
  | Set_global _ -> 4
  | Make_closure _ -> 10
  | Call _ -> 26
  | Tail_call _ -> 20
  | Return -> 18
  | Jump _ -> 2
  | Jump_if_false _ -> 6
  | Pop -> 1
  | Slide _ -> 4
  | Make_cell -> 8
  | Cell_ref -> 6
  | Cell_set -> 4
  | Prim (_, _) -> 0 (* charged from the primitive table *)
  | Apply _ -> 24
  | Tail_apply _ -> 20

