let word_bytes = 4

type kind =
  | Read
  | Write
  | Alloc_write

type phase =
  | Mutator
  | Collector

type sink = { access : int -> kind -> phase -> unit }

let null = { access = (fun _ _ _ -> ()) }

let tee sinks =
  match sinks with
  | [] -> null
  | [ s ] -> s
  | [ s1; s2 ] ->
    { access =
        (fun addr kind phase ->
          s1.access addr kind phase;
          s2.access addr kind phase)
    }
  | sinks ->
    let arr = Array.of_list sinks in
    { access =
        (fun addr kind phase ->
          for i = 0 to Array.length arr - 1 do
            arr.(i).access addr kind phase
          done)
    }

let counting () =
  let n = ref 0 in
  ({ access = (fun _ _ _ -> incr n) }, fun () -> !n)

let counting_by_phase () =
  let mut = ref 0 in
  let col = ref 0 in
  let sink =
    { access =
        (fun _addr _kind phase ->
          match (phase : phase) with
          | Mutator -> incr mut
          | Collector -> incr col)
    }
  in
  (sink, fun () -> (!mut, !col))
