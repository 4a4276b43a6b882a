(* See ckpt_check.mli.  The walk mirrors the writer byte for byte:
   Sweep.save_hier_checkpoint frames the file (magic, 24-byte header,
   snapshot bodies), Hier.snapshot -> Level.snapshot define the
   bodies.  Every constant here (word widths, stride tables, policy
   codes) restates one the simulator owns; test_policy pins them
   against the real writers so the two cannot drift silently. *)

type kind = Grid | Hier

let retired_grid_magic = "SWPCKPT1"
let hier_magic = "SWHCKPT1"
let hier_snapshot_magic = 0x52454948534E4150L
let level_snapshot_magic = 0x4C45564C534E4150L
let word_bytes = 4 (* Trace.word_bytes: simulated words, not file words *)
let finding_cap = 50

type result = {
  file : string;
  kind : kind option;
  cursor : int option;
  events : int option;
  snapshots : int;
  findings : Finding.t list;
}

(* Findings accumulate newest-first; [fail]/[warn] return [unit] so
   the walk can keep going where the format permits. *)
type ctx = {
  cfile : string;
  mutable fs : Finding.t list;
  mutable nfs : int;
}

let emit ctx severity rule where fmt =
  Printf.ksprintf
    (fun msg ->
      ctx.nfs <- ctx.nfs + 1;
      if ctx.nfs <= finding_cap then
        ctx.fs <- Finding.v ~severity ~where ~rule ~file:ctx.cfile msg :: ctx.fs
      else if ctx.nfs = finding_cap + 1 then
        ctx.fs <-
          Finding.v ~severity:Finding.Warning ~rule:"ckpt.suppressed"
            ~file:ctx.cfile
            (Printf.sprintf "more than %d findings; the rest suppressed"
               finding_cap)
          :: ctx.fs)
    fmt

let fail ctx rule ~at fmt = emit ctx Finding.Error rule (Finding.Byte at) fmt
let fail_whole ctx rule fmt = emit ctx Finding.Error rule Finding.Whole fmt

let is_pow2 n = n > 0 && n land (n - 1) = 0

(* A snapshot walk either yields the offset just past the body or
   stops the file scan: a snapshot whose geometry words are corrupt
   has no knowable length, so nothing after it can be located. *)
type step = Next of int | Stop

(* A snapshot word as a native int.  A word that uses bit 63 does not
   fit one and [Level.restore] refuses it, so it is a finding at its
   byte; the scan reads on with the word's low 63 bits. *)
let word ctx src off =
  let w = Bytes.get_int64_le src off in
  let n = Int64.to_int w in
  if not (Int64.equal (Int64.of_int n) w) then
    fail ctx "ckpt.word" ~at:off "word 0x%Lx does not fit a native int" w;
  n

(* The eleven per-phase event counters every snapshot carries. *)
let check_counters ctx src ~at =
  for i = 0 to 10 do
    let off = at + (8 * i) in
    let c = word ctx src off in
    if c < 0 then fail ctx "ckpt.counter" ~at:off "negative counter %d" c
  done;
  at + (8 * 11)

(* tags / valid_lo / valid_hi words, then one dirty byte per line.
   [wpb] is the simulated block width in words; the valid masks split
   it across two words at bit 32 exactly like the engines do. *)
let check_lines ctx src ~at ~lines ~ways ~wpb =
  let full_lo = (1 lsl min wpb 32) - 1 in
  let full_hi = if wpb > 32 then (1 lsl (wpb - 32)) - 1 else 0 in
  let set_mask = (lines / ways) - 1 in
  let tags = at in
  let vlo = tags + (8 * lines) in
  let vhi = vlo + (8 * lines) in
  let dirty = vhi + (8 * lines) in
  for i = 0 to lines - 1 do
    let t = word ctx src (tags + (8 * i)) in
    let set = i / ways in
    if t < -1 then
      fail ctx "ckpt.state" ~at:(tags + (8 * i))
        "tag %d below the -1 invalid marker" t;
    if t > max_int / (wpb * word_bytes) then
      fail ctx "ckpt.state" ~at:(tags + (8 * i))
        "tag %d beyond the address space of %d-byte blocks" t
        (wpb * word_bytes);
    if t >= 0 && t land set_mask <> set then
      fail ctx "ckpt.state" ~at:(tags + (8 * i))
        "tag %d filed in set %d but indexes set %d" t set (t land set_mask);
    let rec twin j =
      if j >= i then ()
      else if Int64.to_int (Bytes.get_int64_le src (tags + (8 * j))) = t then
        fail ctx "ckpt.state" ~at:(tags + (8 * i))
          "tag %d resident in ways %d and %d of set %d" t (j - (set * ways))
          (i - (set * ways)) set
      else twin (j + 1)
    in
    if t >= 0 then twin (set * ways);
    let lo = word ctx src (vlo + (8 * i)) and hi = word ctx src (vhi + (8 * i)) in
    if lo land lnot full_lo <> 0 then
      fail ctx "ckpt.state" ~at:(vlo + (8 * i))
        "valid-word mask 0x%x has bits beyond the %d-word block" lo wpb;
    if hi land lnot full_hi <> 0 then
      fail ctx "ckpt.state" ~at:(vhi + (8 * i))
        "valid-word mask 0x%x has bits beyond the %d-word block" hi wpb;
    let d = Char.code (Bytes.get src (dirty + i)) in
    if d > 1 then
      fail ctx "ckpt.state" ~at:(dirty + i) "dirty byte %d is neither 0 nor 1"
        d
  done;
  dirty + lines

(* --- one Level.snapshot body --------------------------------------------- *)

let stride_of_code code ways =
  match code with
  | 0 -> (ways + 11) / 12 (* LRU: 5-bit ranks, 12 per word *)
  | 1 | 2 -> 1 (* Tree-PLRU / MRU: one bit word per set *)
  | _ -> (ways + 30) / 31 (* QLRU: 2-bit ages, 31 per word *)

let check_level_snapshot ctx src ~at ~index ~level =
  let remaining = Bytes.length src - at in
  let where = Printf.sprintf "hierarchy snapshot %d level %d" index level in
  if remaining < 8 * 18 then begin
    fail ctx "ckpt.truncated" ~at "file ends inside the fixed part of %s"
      where;
    Stop
  end
  else if not (Int64.equal (Bytes.get_int64_le src at) level_snapshot_magic)
  then begin
    fail ctx "ckpt.snapshot-magic" ~at
      "%s does not start with the level magic" where;
    Stop
  end
  else begin
    let size = word ctx src (at + 8)
    and block = word ctx src (at + 16)
    and ways = word ctx src (at + 24)
    and pol = word ctx src (at + 32)
    and wmp = word ctx src (at + 40)
    and cfow = word ctx src (at + 48) in
    let geom_ok =
      let ok = ref true in
      let geom cond fmt =
        Printf.ksprintf
          (fun msg ->
            if not cond then begin
              ok := false;
              fail ctx "ckpt.geometry" ~at "%s: %s" where msg
            end)
          fmt
      in
      geom (is_pow2 block) "block %d is not a positive power of two" block;
      geom (block >= word_bytes && block <= 256)
        "block %d outside %d..256 bytes" block word_bytes;
      geom (ways >= 1 && ways <= 32) "way count %d outside 1..32" ways;
      geom (pol >= 0 && pol <= 4) "unknown policy code %d" pol;
      geom (wmp = 0 || wmp = 1) "unknown write-miss policy code %d" wmp;
      geom (cfow = 0 || cfow = 1) "collector-fetch flag %d is not 0/1" cfow;
      geom (size > 0 && block > 0 && size mod block = 0)
        "size %d is not a positive multiple of the %d-byte block" size block;
      let lines = if block > 0 then size / block else 0 in
      geom (ways < 1 || lines mod ways = 0)
        "%d lines do not divide into %d ways" lines ways;
      geom
        (ways < 1 || lines mod ways <> 0 || is_pow2 (lines / ways))
        "set count %d is not a power of two"
        (if ways >= 1 then lines / max 1 ways else 0);
      geom (pol <> 1 || is_pow2 ways)
        "Tree-PLRU with a non-power-of-two way count %d" ways;
      !ok
    in
    if not geom_ok then Stop
    else begin
      let lines = size / block in
      let nsets = lines / ways in
      let wpb = block / word_bytes in
      let pwords = nsets * stride_of_code pol ways in
      let body = (8 * 18) + (8 * 3 * lines) + lines + (8 * pwords) in
      if remaining < body then begin
        fail ctx "ckpt.truncated" ~at "%s needs %d bytes, %d left" where body
          remaining;
        Stop
      end
      else begin
        let p = check_counters ctx src ~at:(at + (8 * 7)) in
        let (_ : int) = check_lines ctx src ~at:p ~lines ~ways ~wpb in
        Next (at + body)
      end
    end
  end

let check_hier_snapshot ctx src ~at ~index =
  let remaining = Bytes.length src - at in
  if remaining < 16 then begin
    fail ctx "ckpt.truncated" ~at
      "file ends inside the header of hierarchy snapshot %d" index;
    Stop
  end
  else if not (Int64.equal (Bytes.get_int64_le src at) hier_snapshot_magic)
  then begin
    fail ctx "ckpt.snapshot-magic" ~at
      "hierarchy snapshot %d does not start with the hierarchy magic" index;
    Stop
  end
  else begin
    let nlevels = word ctx src (at + 8) in
    if nlevels < 1 || nlevels > 8 then begin
      fail ctx "ckpt.geometry" ~at
        "hierarchy snapshot %d declares %d levels (expected 1..8)" index
        nlevels;
      Stop
    end
    else begin
      let rec levels at level =
        if level = nlevels then Next at
        else
          match check_level_snapshot ctx src ~at ~index ~level with
          | Next at -> levels at (level + 1)
          | Stop -> Stop
      in
      levels (at + 16) 0
    end
  end

(* --- driver --------------------------------------------------------------- *)

let scan ?events:expect_events file =
  let ctx = { cfile = file; fs = []; nfs = 0 } in
  let finish ?kind ?cursor ?events ?(snapshots = 0) () =
    { file; kind; cursor; events; snapshots; findings = List.rev ctx.fs }
  in
  match
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let n = in_channel_length ic in
        let b = Bytes.create n in
        really_input ic b 0 n;
        b)
  with
  | exception Sys_error msg ->
    fail_whole ctx "ckpt.io" "%s" msg;
    finish ()
  | src ->
    let len = Bytes.length src in
    if len < 8 then begin
      fail_whole ctx "ckpt.magic" "%d bytes is too short for a checkpoint"
        len;
      finish ()
    end
    else begin
      let magic = Bytes.sub_string src 0 8 in
      let kind =
        if String.equal magic retired_grid_magic then Some Grid
        else if String.equal magic hier_magic then Some Hier
        else None
      in
      match kind with
      | None ->
        fail_whole ctx "ckpt.magic"
          "not a sweep checkpoint (magic %S; expected %S)" magic hier_magic;
        finish ()
      | Some Grid ->
        (* Its bodies are snapshots of a simulator that no longer
           exists: name the format once instead of walking them. *)
        fail ctx "ckpt.retired" ~at:0
          "%S grid checkpoints are retired; grids now checkpoint as %S \
           hierarchy files, so resume this replay from the start"
          retired_grid_magic hier_magic;
        finish ~kind:Grid ()
      | Some k ->
        if len < 32 then begin
          fail ctx "ckpt.truncated" ~at:8
            "file ends inside the 24-byte header";
          finish ~kind:k ()
        end
        else begin
          let cursor = word ctx src 8
          and events = word ctx src 16
          and count = word ctx src 24 in
          if events < 0 then
            fail ctx "ckpt.header" ~at:16 "negative event count %d" events;
          if cursor < 0 || (events >= 0 && cursor > events) then
            fail ctx "ckpt.header" ~at:8
              "cursor %d outside the recording's %d events" cursor events;
          if count < 0 then
            fail ctx "ckpt.header" ~at:24 "negative snapshot count %d" count;
          (match expect_events with
           | Some e when e <> events ->
             fail ctx "ckpt.events" ~at:16
               "checkpoint was taken over %d events but the recording has %d"
               events e
           | Some _ | None -> ());
          let rec walk at index =
            if count >= 0 && index = count then begin
              if at <> len then
                fail ctx "ckpt.trailing-bytes" ~at
                  "%d bytes after the last declared snapshot" (len - at);
              index
            end
            else if count < 0 then index
            else
              match check_hier_snapshot ctx src ~at ~index with
              | Next at -> walk at (index + 1)
              | Stop -> index
          in
          let snapshots = walk 32 0 in
          finish ~kind:k ~cursor ~events ~snapshots ()
        end
    end

let report r =
  let kind =
    Option.map (function Grid -> "grid" | Hier -> "hierarchy") r.kind
  in
  let int name = Option.map (fun n -> (name, Obs.Json.Int n)) in
  { Report.file = r.file;
    ok =
      Some
        (Printf.sprintf "%s checkpoint (%d snapshot%s, cursor %d of %d events)"
           (Option.value kind ~default:"?")
           r.snapshots
           (if r.snapshots = 1 then "" else "s")
           (Option.value ~default:0 r.cursor)
           (Option.value ~default:0 r.events));
    fields =
      List.filter_map Fun.id
        [ Option.map (fun k -> ("kind", Obs.Json.Str k)) kind;
          int "cursor" r.cursor;
          int "events" r.events;
          Some ("snapshots", Obs.Json.Int r.snapshots)
        ];
    findings = r.findings
  }
