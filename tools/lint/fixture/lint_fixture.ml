(* Seeded-violation fixture for `lint --self-test'.

   Never linked into the simulator: when --self-test is given the lint
   scans this tree instead of lib/ and bin/, and succeeds iff every
   seeded violation below is caught while every clean_* function stays
   clean.  Each seed targets one rule (three interprocedural ones, the
   global-registry rule, and lint.unused-export through the exports of
   {!Fixture_exports}), so a regression in the call-graph closure, the
   Parsetree scans or the typed rules turns the self-test red instead
   of silently blinding the real run. *)

type cell = { mutable count : int; mutable label : string }

(* Seed 1 — lint.hot-alloc-deep: [deep_helper] is not itself [@hot],
   but [hot_step] reaches it through [middle]; the boxed constructor
   must be flagged with the call path hot_step -> middle ->
   deep_helper. *)
let deep_helper x = Some (x + 1)

let middle x = deep_helper x

(* Seed 2 — lint.hot-partial-app: the application of [add3] below is
   syntactically an ordinary call, so only the typed pass (result type
   still an arrow) can see that it allocates a closure every time
   [curried] runs. *)
let add3 a b c = a + b + c
let curried x = add3 x 1

(* Seed 3 — lint.hot-write-barrier: storing a string into a mutable
   field runs caml_modify. *)
let relabel c s = c.label <- s

(* Seed 4 — lint.global-registry: a top-level table that a function
   writes is process-wide state shared by every caller on every
   domain, and it keeps everything registered in it alive. *)
let registry : (int, cell) Hashtbl.t = Hashtbl.create 8
let register k c = Hashtbl.replace registry k c

(* Clean control: a top-level ref written only while the module
   initializes is not a registry that grows at run time. *)
let clean_init_only = ref 0
let () = clean_init_only := 1

(* Clean control: reachable from the root but allocation-free; any
   finding here is a false positive and fails the self-test.  The
   int-to-int field store must NOT trip the write-barrier rule. *)
let clean_bump c = c.count <- c.count + 1

(* Clean control: allocates freely, but nothing [@hot] can reach it,
   so the closure rules must leave it alone. *)
let clean_unreachable n = Array.make n 0

(* Clean control for lint.unused-export: the use that keeps
   [Fixture_exports.clean_shared] exported. *)
let clean_uses_export x = Fixture_exports.clean_shared x

let[@hot] hot_step c x =
  clean_bump c;
  relabel c "step";
  let f = curried x in
  match middle x with Some v -> f v + c.count | None -> c.count
