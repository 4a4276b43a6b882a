(** Bytecode for the vscheme stack machine.

    One code object is produced per lambda (plus one per top-level
    form).  Calling conventions, frame layout and the cost model are
    described in {!Vm}. *)

type instr =
  | Imm of Value.t          (** push an encoded immediate or fixnum *)
  | Const of int            (** push constant-pool slot [k] (traced static read) *)
  | Local of int            (** push the word at [fp + k] *)
  | Set_local of int        (** pop into the word at [fp + k] *)
  | Free of int             (** push free-variable slot [k] of the current closure *)
  | Global of int           (** push global cell [k]; unbound check *)
  | Set_global of int       (** pop into global cell [k]; push unspecified *)
  | Make_closure of int     (** allocate a closure over code object [k] *)
  | Call of int             (** call with [n] arguments *)
  | Tail_call of int
  | Return
  | Jump of int             (** absolute target pc *)
  | Jump_if_false of int    (** pop; jump when [#f] *)
  | Pop
  | Slide of int         (** pop result, drop [n] slots beneath it, re-push *)
  | Make_cell               (** pop [v]; push a fresh cell holding [v] *)
  | Cell_ref                (** pop cell; push contents (letrec check) *)
  | Cell_set                (** pop cell, pop [v]; store; push unspecified *)
  | Prim of int * int       (** integrated primitive [(id, nargs)] *)
  | Apply of int
      (** call with [n] operands, the last being a list of further
          arguments to spread *)
  | Tail_apply of int

type capture =
  | Cap_local of int  (** capture the word at [fp + k] of the creating frame *)
  | Cap_free of int   (** capture free slot [k] of the creating closure *)

type body = {
  instrs : instr array;
  captures : capture array;
  mutable const_base : int;
      (** word address of this code's constant pool in the static
          area; patched at link time *)
  nconsts : int;
}

type kind =
  | Bytecode of body
  | Primitive of int  (** primitive id; used for first-class primitives *)

type code = {
  id : int;
  name : string;
  arity : int;       (** required parameter count *)
  has_rest : bool;
  kind : kind;
}

val nparams : code -> int
(** Parameter stack slots: [arity + 1] with a rest parameter. *)

val instr_cost : instr -> int
(** Simulated instruction charge for executing one bytecode
    instruction, approximating the MIPS instruction sequence a 1990s
    Scheme compiler would emit for it.  Primitive charges are supplied
    by the primitive table and not included here. *)
