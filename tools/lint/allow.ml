(* The lint allowlist: one entry per line,

     rule | file | ident | justification

   '#' starts a comment.  [file] matches by path suffix, [ident] is
   the flagged identifier (or [*] for any).  The justification is
   mandatory — an allowlist entry is a reviewed claim about why the
   flagged pattern is safe, and an empty claim reviews nothing.
   Entries that match no finding are reported as stale so the file
   shrinks when the code it excuses is fixed. *)

type entry = {
  rule : string;
  file : string;
  ident : string;
  justification : string;
  line : int;
  mutable used : bool;
}

let trim = String.trim

let parse_line ~src ~line s =
  let s = trim s in
  if String.length s = 0 || s.[0] = '#' then Ok None
  else
    match String.split_on_char '|' s with
    | [ rule; file; ident; justification ] ->
      let rule = trim rule
      and file = trim file
      and ident = trim ident
      and justification = trim justification in
      if String.length justification = 0 then
        Error
          (Check.Finding.v ~rule:"lint.allowlist" ~file:src
             ~where:(Check.Finding.Line line)
             "allowlist entry has an empty justification")
      else if String.length rule = 0 || String.length file = 0 then
        Error
          (Check.Finding.v ~rule:"lint.allowlist" ~file:src
             ~where:(Check.Finding.Line line)
             "allowlist entry needs a rule and a file")
      else
        Ok (Some { rule; file; ident; justification; line; used = false })
    | _ ->
      Error
        (Check.Finding.v ~rule:"lint.allowlist" ~file:src
           ~where:(Check.Finding.Line line)
           "expected `rule | file | ident | justification'")

let load path =
  if not (Sys.file_exists path) then ([], [])
  else begin
    let ic = open_in path in
    let entries = ref [] and findings = ref [] in
    let line = ref 0 in
    (try
       while true do
         let s = input_line ic in
         incr line;
         match parse_line ~src:path ~line:!line s with
         | Ok None -> ()
         | Ok (Some e) -> entries := e :: !entries
         | Error f -> findings := f :: !findings
       done
     with End_of_file -> ());
    close_in ic;
    (List.rev !entries, List.rev !findings)
  end

let suffix_match ~suffix s =
  let ls = String.length s and lx = String.length suffix in
  lx <= ls && String.equal (String.sub s (ls - lx) lx) suffix

(* Marks the matching entry as used.  [justified] is a further
   condition on the entry's justification (default: any). *)
let allowed ?(justified = fun _ -> true) entries ~rule ~file ~ident =
  List.exists
    (fun e ->
      let hit =
        String.equal e.rule rule
        && suffix_match ~suffix:e.file file
        && (String.equal e.ident "*" || String.equal e.ident ident)
        && justified e.justification
      in
      if hit then e.used <- true;
      hit)
    entries

(* Does the entry's file pattern still name a file the lint actually
   scanned?  Suffix semantics mirror {!allowed}, so an entry can only
   be orphaned when every path it could ever match is gone. *)
let file_known ~files e =
  List.exists (fun f -> suffix_match ~suffix:e.file f) files

let stale ~src ~files entries =
  List.filter_map
    (fun e ->
      if e.used then None
      else if not (file_known ~files e) then
        Some
          (Check.Finding.v ~severity:Check.Finding.Warning
             ~rule:"lint.allowlist" ~file:src
             ~where:(Check.Finding.Line e.line)
             (Printf.sprintf
                "orphaned allowlist entry: %s matches no scanned file \
                 (deleted or renamed?); prune it with --prune-allow"
                e.file))
      else
        Some
          (Check.Finding.v ~severity:Check.Finding.Warning
             ~rule:"lint.allowlist" ~file:src
             ~where:(Check.Finding.Line e.line)
             (Printf.sprintf
                "stale allowlist entry: no %s finding matches %s / %s" e.rule
                e.file e.ident)))
    entries

(* Rewrite [src] without the orphaned entries (file gone), keeping
   comments, blank lines and every live entry byte-for-byte.  Returns
   the number of lines dropped. *)
let prune ~src ~files entries =
  let orphan_lines =
    List.filter_map
      (fun e -> if file_known ~files e then None else Some e.line)
      entries
  in
  if orphan_lines = [] || not (Sys.file_exists src) then 0
  else begin
    let ic = open_in src in
    let buf = Buffer.create 1024 in
    let line = ref 0 in
    (try
       while true do
         let s = input_line ic in
         incr line;
         if not (List.mem !line orphan_lines) then begin
           Buffer.add_string buf s;
           Buffer.add_char buf '\n'
         end
       done
     with End_of_file -> ());
    close_in ic;
    Obs.Atomic_file.write src (fun oc ->
        output_string oc (Buffer.contents buf));
    List.length orphan_lines
  end
