(* Host-clock spans recorded from the benchmark's own code, around its
   calls into each layer.  Spans nest workload -> operation -> layer
   call; every span of an operation carries that operation's id.

   A span's self time is its duration minus the part its child spans
   cover.  Self times are accumulated per layer and per call name in
   reference-speed seconds: when an operation ends, its spans are
   scaled by the operation's drift factor (see {!Meter}).

   Disabled, [call] costs one branch.  Spans are kept in memory and
   written as Chrome-trace JSON through {!Obs.Events} at the end. *)

type span = {
  id : int;
  parent : int option;
  op : int;
  layer : string;
  name : string;
  t0 : float;
  mutable t1 : float;
  mutable work : int;
}

type acc = { mutable self_s : float; mutable work : int }

type t = {
  mutable enabled : bool;
  timeline : Obs.Events.timeline;
  origin : float;
  mutable stack : span list;
  mutable closed : span list;    (** of the current operation *)
  mutable next_id : int;
  mutable op : int;
  by_layer : (string, acc) Hashtbl.t;
  by_call : (string, acc) Hashtbl.t;  (** key ["layer.name"] *)
}

let create () =
  let origin = Clock.now () in
  let timeline = Obs.Events.create () in
  { enabled = false; timeline; origin; stack = []; closed = []; next_id = 0;
    op = 0; by_layer = Hashtbl.create 8; by_call = Hashtbl.create 16 }

let set_enabled t b = t.enabled <- b

let us t time = int_of_float ((time -. t.origin) *. 1e6)

let open_span t ~layer ~name =
  let now = Clock.now () in
  let s =
    { id = t.next_id;
      parent = (match t.stack with p :: _ -> Some p.id | [] -> None);
      op = t.op; layer; name; t0 = now; t1 = now; work = 0 }
  in
  t.next_id <- t.next_id + 1;
  t.stack <- s :: t.stack;
  Obs.Events.span_begin t.timeline ~ts:(us t now) ~cat:layer
    ~args:[ ("op", Obs.Events.I s.op); ("span", Obs.Events.I s.id) ]
    (layer ^ "." ^ name)

let close_span t ~work =
  match t.stack with
  | [] -> invalid_arg "Spans.close_span: no open span"
  | s :: rest ->
    let now = Clock.now () in
    s.t1 <- now;
    s.work <- work;
    t.stack <- rest;
    t.closed <- s :: t.closed;
    Obs.Events.span_end t.timeline ~ts:(us t now) ~cat:s.layer
      ~args:[ ("op", Obs.Events.I s.op); ("work", Obs.Events.I work) ]
      (s.layer ^ "." ^ s.name)

(* Run [f] inside a span; [work] counts what the call delivered (events,
   event x cache pairs, ...) for per-unit costs. *)
let call t ~layer ~name ?work f =
  if not t.enabled then f ()
  else begin
    open_span t ~layer ~name;
    match f () with
    | v ->
      close_span t ~work:(match work with Some g -> g v | None -> 0);
      v
    | exception e ->
      close_span t ~work:0;
      raise e
  end

let begin_op t ~id ~name =
  t.op <- id;
  if t.enabled then open_span t ~layer:"op" ~name

let acc tbl key =
  match Hashtbl.find_opt tbl key with
  | Some a -> a
  | None ->
    let a = { self_s = 0.; work = 0 } in
    Hashtbl.replace tbl key a;
    a

(* Self time of each closed span: duration minus the children's
   durations, pure arithmetic over (id, parent, t0, t1). *)
let self_times spans =
  let child = Hashtbl.create 16 in
  List.iter
    (fun (s : span) ->
      match s.parent with
      | Some p ->
        let prev = Option.value ~default:0. (Hashtbl.find_opt child p) in
        Hashtbl.replace child p (prev +. (s.t1 -. s.t0))
      | None -> ())
    spans;
  List.map
    (fun (s : span) ->
      let kids = Option.value ~default:0. (Hashtbl.find_opt child s.id) in
      (s, s.t1 -. s.t0 -. kids))
    spans

(* Close the operation's span and fold its spans' self times, scaled
   by the operation's drift [factor], into the accumulators. *)
let end_op t ~factor =
  if t.enabled then begin
    close_span t ~work:0;
    List.iter
      (fun ((s : span), self) ->
        let add a =
          a.self_s <- a.self_s +. (self *. factor);
          a.work <- a.work + s.work
        in
        add (acc t.by_layer s.layer);
        add (acc t.by_call (s.layer ^ "." ^ s.name)))
      (self_times t.closed);
    t.closed <- []
  end

let with_workload t ~name f =
  if t.enabled then open_span t ~layer:"workload" ~name;
  Fun.protect f ~finally:(fun () ->
    if t.enabled then begin
      close_span t ~work:0;
      t.closed <- []
    end)

let layer_self_s t l =
  match Hashtbl.find_opt t.by_layer l with Some a -> a.self_s | None -> 0.

(* Normalized nanoseconds per unit of work of one call name. *)
let ns_per_work t c =
  match Hashtbl.find_opt t.by_call c with
  | Some a when a.work > 0 -> a.self_s *. 1e9 /. float_of_int a.work
  | Some _ | None -> 0.

let span_count t = Obs.Events.length t.timeline / 2

let write_chrome t path = Obs.Events.write_chrome_trace t.timeline path
