(* Static byte-level verification of recorded traces.

   This is a deliberate re-implementation of the two on-disk formats
   (Memsim.Recording v2 and v3), independent of [Recording.load]: where
   the loader raises on the first problem, the scanner keeps a cursor,
   collects findings with byte offsets and event indices, and recovers
   where the encoding allows (a corrupt kind tag does not desynchronize
   either format; a varint overflow or truncation does).  The decoded
   events are returned as a [Recording.t] so the stream checker can run
   structural invariants over them. *)

type result = {
  file : string;
  format : Memsim.Recording.format option;
  declared_events : int option;
  recording : Memsim.Recording.t option;
  findings : Finding.t list;
}

(* Recording.save writes the v2/v3 magics (kept in sync by test_check's
   round-trip cases); the retired v1 one is recognised only to name
   it. *)
let magic_v1 = 0x5243545243414345L
let magic_v2 = 0x3256545243414345L
let magic_v3 = 0x3356545243414345L

let max_addr = max_int lsr 3

let findings_cap = 25

type scanner = {
  src : string;              (* the input file, for findings *)
  bytes : Bytes.t;           (* whole file *)
  mutable pos : int;
  mutable out : Finding.t list; (* reversed *)
  mutable nfindings : int;
  mutable suppressed : int;
}

let report sc ?severity ~rule ~where message =
  if sc.nfindings >= findings_cap then sc.suppressed <- sc.suppressed + 1
  else begin
    sc.nfindings <- sc.nfindings + 1;
    sc.out <- Finding.v ?severity ~rule ~file:sc.src ~where message :: sc.out
  end

let finish sc =
  if sc.suppressed > 0 then
    sc.out <-
      Finding.v ~severity:Finding.Warning ~rule:"trace.suppressed"
        ~file:sc.src
        (Printf.sprintf "%d further finding(s) suppressed" sc.suppressed)
      :: sc.out;
  List.rev sc.out

let remaining sc = Bytes.length sc.bytes - sc.pos

(* --- v2: 17-byte header, zigzag delta + varint per event --------------- *)

exception Stop

let scan_v2 sc =
  let file_bytes = Bytes.length sc.bytes in
  if file_bytes < 17 then begin
    report sc ~rule:"trace.truncated" ~where:(Finding.Byte file_bytes)
      "file too short for a v2 header";
    (None, None)
  end
  else begin
    let version = Char.code (Bytes.get sc.bytes 8) in
    if version <> 2 then begin
      report sc ~rule:"trace.version" ~where:(Finding.Byte 8)
        (Printf.sprintf "unsupported format version %d" version);
      (None, None)
    end
    else begin
      let declared = Int64.to_int (Bytes.get_int64_le sc.bytes 9) in
      sc.pos <- 17;
      if declared < 0 then begin
        report sc ~rule:"trace.header-count" ~where:(Finding.Byte 9)
          (Printf.sprintf "header declares a negative event count (%d)"
             declared);
        (Some declared, None)
      end
      else begin
        let recording = Memsim.Recording.create () in
        let out = Memsim.Recording.sink recording in
        let prev = ref 0 in
        let byte ~event =
          if remaining sc = 0 then begin
            report sc ~rule:"trace.truncated" ~where:(Finding.Byte sc.pos)
              (Printf.sprintf
                 "file ends inside event %d (%d of %d events decoded)" event
                 event declared);
            raise Stop
          end;
          let b = Char.code (Bytes.unsafe_get sc.bytes sc.pos) in
          sc.pos <- sc.pos + 1;
          b
        in
        (try
           for i = 0 to declared - 1 do
             let start = sc.pos in
             let b0 = byte ~event:i in
             let tag = b0 land 7 in
             if tag land 6 = 6 then
               report sc ~rule:"trace.kind-bits" ~where:(Finding.Event i)
                 (Printf.sprintf "byte %d: invalid kind code 3" start);
             let zz = ref ((b0 lsr 3) land 0xf) in
             if b0 land 0x80 <> 0 then begin
               let shift = ref 4 in
               let continue = ref true in
               while !continue do
                 let b = byte ~event:i in
                 if !shift > 62 then begin
                   report sc ~rule:"trace.varint" ~where:(Finding.Event i)
                     (Printf.sprintf
                        "byte %d: varint continues past 63 bits" start);
                   raise Stop
                 end;
                 zz := !zz lor ((b land 0x7f) lsl !shift);
                 shift := !shift + 7;
                 continue := b land 0x80 <> 0
               done
             end;
             let delta = (!zz lsr 1) lxor (- (!zz land 1)) in
             let addr = !prev + delta in
             if addr < 0 || addr > max_addr then
               report sc ~rule:"trace.address-range" ~where:(Finding.Event i)
                 (Printf.sprintf
                    "byte %d: delta %d takes the address to %d, outside \
                     [0, 2^60)"
                    start delta addr)
             else if tag land 6 <> 6 then begin
               let a, kind, phase = Memsim.Chunk.unpack ((addr lsl 3) lor tag) in
               out.Memsim.Trace.access a kind phase
             end;
             prev := addr
           done;
           if remaining sc > 0 then
             report sc ~rule:"trace.trailing-bytes"
               ~where:(Finding.Byte sc.pos)
               (Printf.sprintf
                  "%d byte(s) after the declared %d events" (remaining sc)
                  declared)
         with Stop -> ());
        (Some declared, Some recording)
      end
    end
  end

(* --- v3: 24-byte header, 8 fixed little-endian bytes per event ---------

   The mmap-native format.  Recording.load maps the payload and so
   cannot observe bit 63 of a word (the int-kind Bigarray view is
   63-bit): this scanner is where a v3 file's word-width check lives,
   alongside the header geometry (version, stride, count) the loader
   also enforces. *)

let scan_v3 sc =
  let file_bytes = Bytes.length sc.bytes in
  if file_bytes < 24 then begin
    report sc ~rule:"trace.truncated" ~where:(Finding.Byte file_bytes)
      "file too short for a v3 header";
    (None, None)
  end
  else begin
    let version = Char.code (Bytes.get sc.bytes 8) in
    if version <> 3 then begin
      report sc ~rule:"trace.version" ~where:(Finding.Byte 8)
        (Printf.sprintf "unsupported format version %d" version);
      (None, None)
    end
    else begin
      let stride = Char.code (Bytes.get sc.bytes 9) in
      if stride <> 8 then begin
        report sc ~rule:"trace.stride" ~where:(Finding.Byte 9)
          (Printf.sprintf "unsupported event stride %d (expected 8)" stride);
        (None, None)
      end
      else begin
        let declared = Int64.to_int (Bytes.get_int64_le sc.bytes 16) in
        sc.pos <- 24;
        if declared < 0 then begin
          report sc ~rule:"trace.header-count" ~where:(Finding.Byte 16)
            (Printf.sprintf "header declares a negative event count (%d)"
               declared);
          (Some declared, None)
        end
        else begin
          let payload = file_bytes - 24 in
          if payload mod 8 <> 0 then
            report sc ~rule:"trace.truncated"
              ~where:(Finding.Byte (24 + (payload / 8 * 8)))
              (Printf.sprintf "file ends with a partial %d-byte word"
                 (payload mod 8));
          let held = payload / 8 in
          if held < declared then
            report sc ~rule:"trace.declared-count" ~where:(Finding.Byte 16)
              (Printf.sprintf "header declares %d events but the file holds %d"
                 declared held)
          else if held > declared then
            report sc ~rule:"trace.trailing-bytes"
              ~where:(Finding.Byte (24 + (8 * declared)))
              (Printf.sprintf "%d byte(s) after the declared %d events"
                 (payload - (8 * declared))
                 declared);
          let scanned = min held declared in
          let recording = Memsim.Recording.create () in
          let out = Memsim.Recording.sink recording in
          for i = 0 to scanned - 1 do
            let off = 24 + (8 * i) in
            let w64 = Bytes.get_int64_le sc.bytes off in
            let w = Int64.to_int w64 in
            if not (Int64.equal (Int64.of_int w) w64) then
              report sc ~rule:"trace.word-width" ~where:(Finding.Event i)
                (Printf.sprintf
                   "byte %d: word 0x%Lx does not fit a 63-bit native int" off
                   w64)
            else if w land 6 = 6 then
              report sc ~rule:"trace.kind-bits" ~where:(Finding.Event i)
                (Printf.sprintf "byte %d: invalid kind code 3" off)
            else begin
              let addr, kind, phase = Memsim.Chunk.unpack w in
              out.Memsim.Trace.access addr kind phase
            end
          done;
          sc.pos <- 24 + (8 * scanned);
          (Some declared, Some recording)
        end
      end
    end
  end

(* --- Entry point -------------------------------------------------------- *)

let read_file path =
  (* Opening a directory succeeds, and reading its length then fails
     with an errno message (EOVERFLOW) that does not name the cause. *)
  if Sys.is_directory path then raise (Sys_error (path ^ ": is a directory"));
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      let b = Bytes.create n in
      really_input ic b 0 n;
      b)

let scan path =
  match read_file path with
  | exception Sys_error msg ->
    { file = path;
      format = None;
      declared_events = None;
      recording = None;
      findings = [ Finding.v ~rule:"trace.io" ~file:path msg ]
    }
  | bytes ->
    let sc =
      { src = path; bytes; pos = 0; out = []; nfindings = 0; suppressed = 0 }
    in
    if Bytes.length bytes < 16 then begin
      report sc ~rule:"trace.truncated"
        ~where:(Finding.Byte (Bytes.length bytes))
        "file too short for a recording header";
      { file = path;
        format = None;
        declared_events = None;
        recording = None;
        findings = finish sc
      }
    end
    else begin
      let tag = Bytes.get_int64_le bytes 0 in
      let format, (declared, recording) =
        if Int64.equal tag magic_v2 then
          (Some Memsim.Recording.V2, scan_v2 sc)
        else if Int64.equal tag magic_v3 then
          (Some Memsim.Recording.V3, scan_v3 sc)
        else if Int64.equal tag magic_v1 then begin
          report sc ~rule:"trace.retired" ~where:(Finding.Byte 0)
            "format v1 is retired; re-record the trace as v2 or v3";
          (None, (None, None))
        end
        else begin
          report sc ~rule:"trace.magic" ~where:(Finding.Byte 0)
            (Printf.sprintf "not a trace recording (magic 0x%Lx)" tag);
          (None, (None, None))
        end
      in
      { file = path;
        format;
        declared_events = declared;
        recording;
        findings = finish sc
      }
    end

let summary_json (s : Stream_check.summary) =
  Obs.Json.Obj
    [ ("events", Obs.Json.Int s.events);
      ("mutator_events", Obs.Json.Int s.mutator_events);
      ("collector_events", Obs.Json.Int s.collector_events);
      ("collector_runs", Obs.Json.Int s.collector_runs)
    ]

let check ~geometry ~expect path =
  let scan = scan path in
  let summary, stream_findings =
    match scan.recording with
    | Some recording when not (Finding.has_errors scan.findings) ->
      let s, fs = Stream_check.check ?geometry ~expect ~file:path recording in
      (Some s, fs)
    | Some _ | None -> (None, [])
  in
  let format =
    Option.map Memsim.Recording.format_label scan.format
  in
  let ok (s : Stream_check.summary) =
    Printf.sprintf
      "%s, %d events (%d mutator / %d collector, %d collection run%s)"
      (Option.value format ~default:"?")
      s.events s.mutator_events s.collector_events s.collector_runs
      (if s.collector_runs = 1 then "" else "s")
  in
  ( { Report.file = path;
      ok = Option.map ok summary;
      fields =
        List.filter_map Fun.id
          [ Option.map (fun f -> ("format", Obs.Json.Str f)) format;
            Option.map (fun s -> ("summary", summary_json s)) summary
          ];
      findings = scan.findings @ stream_findings
    },
    Option.map Memsim.Recording.length scan.recording )
