(* Instruments share their registry's [enabled] cell so that the
   disabled fast path is one load + one branch, with no allocation and
   no indirection through the registry table. *)

type counter = {
  c_enabled : bool ref;
  c_name : string;
  c_help : string;
  mutable c_value : int;
}

type gauge = {
  g_enabled : bool ref;
  g_name : string;
  g_help : string;
  mutable g_value : float;
}

type histogram = {
  h_enabled : bool ref;
  h_name : string;
  h_help : string;
  h_bounds : float array;      (* strictly increasing upper bounds *)
  h_counts : int array;        (* length = bounds + 1; last is +inf *)
  mutable h_count : int;
  mutable h_sum : float;
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type registry = {
  enabled : bool ref;
  instruments : (string, instrument) Hashtbl.t;
  mutable order : string list;  (* registration order, newest first *)
}

let create ?(enabled = true) () =
  { enabled = ref enabled; instruments = Hashtbl.create 64; order = [] }

let default = create ()

let set_enabled reg on = reg.enabled := on

let instrument_name = function
  | Counter c -> c.c_name
  | Gauge g -> g.g_name
  | Histogram h -> h.h_name

let register reg name make =
  match Hashtbl.find_opt reg.instruments name with
  | Some existing -> existing
  | None ->
    let i = make () in
    assert (instrument_name i = name);
    Hashtbl.replace reg.instruments name i;
    reg.order <- name :: reg.order;
    i

let type_error name want =
  invalid_arg
    (Printf.sprintf "Obs.Metrics: %S already registered as a different \
                     instrument type (wanted %s)" name want)

module Counter = struct
  type t = counter

  let incr c = if !(c.c_enabled) then c.c_value <- c.c_value + 1
  let add c n = if !(c.c_enabled) then c.c_value <- c.c_value + n
  let set c n = c.c_value <- n
  let value c = c.c_value
end

let counter ?(help = "") reg name =
  match
    register reg name (fun () ->
        Counter { c_enabled = reg.enabled; c_name = name; c_help = help; c_value = 0 })
  with
  | Counter c -> c
  | Gauge _ | Histogram _ -> type_error name "counter"

module Gauge = struct
  type t = gauge

  let set g v = if !(g.g_enabled) then g.g_value <- v
  let value g = g.g_value
end

let gauge ?(help = "") reg name =
  match
    register reg name (fun () ->
        Gauge { g_enabled = reg.enabled; g_name = name; g_help = help; g_value = 0.0 })
  with
  | Gauge g -> g
  | Counter _ | Histogram _ -> type_error name "gauge"

module Histogram = struct
  type t = histogram

  let observe h v =
    if !(h.h_enabled) then begin
      let n = Array.length h.h_bounds in
      let i = ref 0 in
      while !i < n && v > h.h_bounds.(!i) do
        incr i
      done;
      h.h_counts.(!i) <- h.h_counts.(!i) + 1;
      h.h_count <- h.h_count + 1;
      h.h_sum <- h.h_sum +. v
    end

  let observe_int h v = observe h (float_of_int v)
  let count h = h.h_count
  let sum h = h.h_sum
  let bucket_counts h = Array.copy h.h_counts

  (* Bucket-interpolated quantile, Prometheus-style: find the bucket
     holding the q*count-th observation and interpolate linearly
     between its edges.  Observations landing in the +inf overflow
     bucket clamp to the last finite bound. *)
  let quantile h q =
    if h.h_count = 0 then Float.nan
    else begin
      let q = Float.max 0.0 (Float.min 1.0 q) in
      let target = q *. float_of_int h.h_count in
      let n = Array.length h.h_bounds in
      let rec find i cum =
        if i >= n then h.h_bounds.(n - 1)
        else begin
          let c = h.h_counts.(i) in
          let cum' = cum + c in
          if c > 0 && float_of_int cum' >= target then begin
            let hi = h.h_bounds.(i) in
            let lo = if i = 0 then Float.min 0.0 hi else h.h_bounds.(i - 1) in
            let frac = (target -. float_of_int cum) /. float_of_int c in
            let frac = Float.max 0.0 (Float.min 1.0 frac) in
            lo +. ((hi -. lo) *. frac)
          end
          else find (i + 1) cum'
        end
      in
      find 0 0
    end
end

let histogram ?(help = "") reg name ~buckets =
  let ok =
    Array.length buckets > 0
    && (let sorted = ref true in
        for i = 1 to Array.length buckets - 1 do
          if buckets.(i) <= buckets.(i - 1) then sorted := false
        done;
        !sorted)
  in
  if not ok then
    invalid_arg "Obs.Metrics.histogram: buckets must be non-empty and \
                 strictly increasing";
  match
    register reg name (fun () ->
        Histogram
          { h_enabled = reg.enabled;
            h_name = name;
            h_help = help;
            h_bounds = Array.copy buckets;
            h_counts = Array.make (Array.length buckets + 1) 0;
            h_count = 0;
            h_sum = 0.0
          })
  with
  | Histogram h -> h
  | Counter _ | Gauge _ -> type_error name "histogram"

let reset reg =
  Hashtbl.iter
    (fun _ i ->
      match i with
      | Counter c -> c.c_value <- 0
      | Gauge g -> g.g_value <- 0.0
      | Histogram h ->
        Array.fill h.h_counts 0 (Array.length h.h_counts) 0;
        h.h_count <- 0;
        h.h_sum <- 0.0)
    reg.instruments

let fold reg f acc =
  List.fold_left
    (fun acc name -> f acc (Hashtbl.find reg.instruments name))
    acc (List.rev reg.order)

let instrument_json = function
  | Counter c ->
    let fields = [ ("type", Json.Str "counter"); ("value", Json.Int c.c_value) ] in
    let fields =
      if c.c_help = "" then fields else fields @ [ ("help", Json.Str c.c_help) ]
    in
    (c.c_name, Json.Obj fields)
  | Gauge g ->
    let fields = [ ("type", Json.Str "gauge"); ("value", Json.Float g.g_value) ] in
    let fields =
      if g.g_help = "" then fields else fields @ [ ("help", Json.Str g.g_help) ]
    in
    (g.g_name, Json.Obj fields)
  | Histogram h ->
    let buckets =
      List.concat
        [ Array.to_list
            (Array.mapi
               (fun i b ->
                 Json.Obj [ ("le", Json.Float b); ("count", Json.Int h.h_counts.(i)) ])
               h.h_bounds);
          [ Json.Obj
              [ ("le", Json.Str "+inf");
                ("count", Json.Int h.h_counts.(Array.length h.h_bounds))
              ]
          ]
        ]
    in
    let percentiles =
      if h.h_count = 0 then []
      else
        [ ("p50", Json.Float (Histogram.quantile h 0.5));
          ("p90", Json.Float (Histogram.quantile h 0.9));
          ("p99", Json.Float (Histogram.quantile h 0.99))
        ]
    in
    ( h.h_name,
      Json.Obj
        ([ ("type", Json.Str "histogram");
           ("count", Json.Int h.h_count);
           ("sum", Json.Float h.h_sum)
         ]
         @ percentiles
         @ [ ("buckets", Json.List buckets) ]) )

let to_json reg =
  Json.Obj (fold reg (fun acc i -> instrument_json i :: acc) [] |> List.rev)
