type cell = {
  region : string;
  phase : string;
  refs : int;
  misses : int;
  alloc_misses : int;
  fetches : int;
  writebacks : int;
  writes : int;
}

type site = {
  site : string;
  alloc_writes : int;
  alloc_misses : int;
}

type heat = {
  rows : int;
  cols : int;
  row_bytes : int;
  col_events : int;
  counts : int array;
}

type t = {
  workload : string;
  cache : string;
  events : int;
  sample_every : int;
  chunks_seen : int;
  chunks_attributed : int;
  events_attributed : int;
  cells : cell list;
  sites : site list;
  heat : heat;
  region_time : int array;
}

let region_names = [| "static"; "stack"; "tospace"; "fromspace"; "free" |]
let num_regions = Array.length region_names

let total_misses t = List.fold_left (fun acc c -> acc + c.misses) 0 t.cells

let top_sites t = List.filteri (fun i _ -> i < 5) t.sites

let cell_json c =
  Json.Obj
    [ ("region", Json.Str c.region);
      ("phase", Json.Str c.phase);
      ("refs", Json.Int c.refs);
      ("misses", Json.Int c.misses);
      ("alloc_misses", Json.Int c.alloc_misses);
      ("fetches", Json.Int c.fetches);
      ("writebacks", Json.Int c.writebacks);
      ("writes", Json.Int c.writes)
    ]

let site_json s =
  Json.Obj
    [ ("site", Json.Str s.site);
      ("alloc_writes", Json.Int s.alloc_writes);
      ("alloc_misses", Json.Int s.alloc_misses)
    ]

let heat_json h =
  let row r =
    Json.List
      (List.init h.cols (fun c -> Json.Int h.counts.((r * h.cols) + c)))
  in
  Json.Obj
    [ ("rows", Json.Int h.rows);
      ("cols", Json.Int h.cols);
      ("row_bytes", Json.Int h.row_bytes);
      ("col_events", Json.Int h.col_events);
      ("counts", Json.List (List.init h.rows row))
    ]

let region_time_json t =
  let cols = t.heat.cols in
  let col c =
    Json.List
      (List.init num_regions (fun r -> Json.Int t.region_time.((c * num_regions) + r)))
  in
  Json.Obj
    [ ("regions", Json.List (Array.to_list (Array.map (fun n -> Json.Str n) region_names)));
      ("cols", Json.List (List.init cols col))
    ]

let to_json t =
  Json.Obj
    [ ("workload", Json.Str t.workload);
      ("cache", Json.Str t.cache);
      ("events", Json.Int t.events);
      ("sample_every", Json.Int t.sample_every);
      ("chunks_seen", Json.Int t.chunks_seen);
      ("chunks_attributed", Json.Int t.chunks_attributed);
      ("events_attributed", Json.Int t.events_attributed);
      ("total_misses", Json.Int (total_misses t));
      ("cells", Json.List (List.map cell_json t.cells));
      ("sites", Json.List (List.map site_json t.sites));
      ("heat", heat_json t.heat);
      ("region_time", region_time_json t)
    ]

let collapsed_stacks t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun s ->
      if s.alloc_misses > 0 then begin
        Buffer.add_string buf t.workload;
        Buffer.add_char buf ';';
        Buffer.add_string buf s.site;
        Buffer.add_char buf ' ';
        Buffer.add_string buf (string_of_int s.alloc_misses);
        Buffer.add_char buf '\n'
      end)
    t.sites;
  Buffer.contents buf

let overlay t tl =
  let cols = t.heat.cols in
  for c = 0 to cols - 1 do
    for r = 0 to num_regions - 1 do
      let v = t.region_time.((c * num_regions) + r) in
      if v > 0 then
        Events.sample tl
          ~ts:(c * t.heat.col_events)
          ~cat:"profile"
          ~args:[ ("misses", Events.I v) ]
          ("miss." ^ region_names.(r))
    done
  done
