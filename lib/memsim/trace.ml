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
