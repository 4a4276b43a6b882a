type result = {
  file : string;
  table : Memsim.Attr.table option;
  findings : Finding.t list;
}

let semantic_findings ?events file (t : Memsim.Attr.table) =
  let findings = ref [] in
  let add f = findings := f :: !findings in
  for i = 0 to t.Memsim.Attr.n_epochs - 1 do
    let pos = t.Memsim.Attr.epoch_pos.(i) in
    let dyn_lo = t.Memsim.Attr.epoch_dyn_lo.(i) in
    let check_interval what lo hi =
      if hi > lo && lo < dyn_lo then
        add
          (Finding.v ~rule:"attr.map-range" ~where:(Finding.Event pos) ~file
             (Printf.sprintf
                "epoch %d: %s [%d, %d) starts below the dynamic area (%d)" i
                what lo hi dyn_lo))
    in
    check_interval "tospace" t.Memsim.Attr.epoch_to_lo.(i)
      t.Memsim.Attr.epoch_to_hi.(i);
    check_interval "fromspace" t.Memsim.Attr.epoch_from_lo.(i)
      t.Memsim.Attr.epoch_from_hi.(i);
    (match events with
     | Some n when pos >= n && n > 0 ->
       add
         (Finding.v ~rule:"attr.events-bound" ~where:(Finding.Event pos) ~file
            (Printf.sprintf
               "epoch %d published at position %d, beyond the recording's %d \
                events" i pos n))
     | _ -> ())
  done;
  (match events with
   | Some n when n > 0 ->
     for i = 0 to t.Memsim.Attr.n_runs - 1 do
       let pos = t.Memsim.Attr.run_pos.(i) in
       if pos >= n then
         add
           (Finding.v ~rule:"attr.events-bound" ~where:(Finding.Event pos)
              ~file
              (Printf.sprintf
                 "site run %d starts at position %d, beyond the recording's \
                  %d events" i pos n))
     done
   | _ -> ());
  if t.Memsim.Attr.n_epochs = 0 then
    add
      (Finding.v ~severity:Finding.Warning ~rule:"attr.no-epochs" ~file
         "no region epochs: every address will classify as free");
  if t.Memsim.Attr.sites_clipped then
    add
      (Finding.v ~severity:Finding.Warning ~rule:"attr.sites-clipped" ~file
         (Printf.sprintf
            "site table hit the %d-entry cap at capture; \"(overflow)\" \
             aggregates the rest" Memsim.Attr.max_sites));
  List.rev !findings

let scan ?events file =
  match Memsim.Attr.load file with
  | t -> { file; table = Some t; findings = semantic_findings ?events file t }
  | exception Sys_error msg ->
    { file; table = None; findings = [ Finding.v ~rule:"attr.io" ~file msg ] }
  | exception Failure msg ->
    { file;
      table = None;
      findings = [ Finding.v ~rule:"attr.format" ~file msg ]
    }

let report r =
  { Report.file = r.file;
    ok =
      Option.map
        (fun t ->
          Printf.sprintf
            "attribution table (%d region epochs, %d site runs, %d sites)"
            (Memsim.Attr.num_epochs t) (Memsim.Attr.num_runs t)
            (Memsim.Attr.num_sites t))
        r.table;
    fields = [];
    findings = r.findings
  }
