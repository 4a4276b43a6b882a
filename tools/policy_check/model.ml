(* The model checker proper.  See model.mli for the two-prong design.
   Everything runs on single-set levels (nsets = 1, 16-byte blocks =
   four 4-byte words) so one set's metadata is the whole state. *)

module L = Memsim.Level
module T = Memsim.Trace
module C = Memsim.Chunk
module F = Check.Finding

type report = {
  policy : L.policy;
  ways : int;
  states : int;
  transitions : int;
  sequences : int;
  events : int;
  idem_exploited : bool;
  idem_violations : int;
  findings : F.t list;
}

let block_bytes = 16
let level_file = "lib/memsim/level.ml"
let finding_cap = 50

(* Mutable checking context threaded through both prongs. *)
type ctx = {
  mutable cfindings : F.t list;
  mutable nfindings : int;
  mutable cevents : int;
  label : string; (* "lru/4" — prefixed to every message *)
}

let fail ctx rule fmt =
  Printf.ksprintf
    (fun msg ->
      if ctx.nfindings < finding_cap then begin
        ctx.cfindings <-
          F.v ~rule ~file:level_file (ctx.label ^ ": " ^ msg) :: ctx.cfindings;
        ctx.nfindings <- ctx.nfindings + 1
      end)
    fmt

let saturated ctx = ctx.nfindings >= finding_cap

let snap lvl =
  let b = Buffer.create (L.snapshot_bytes lvl) in
  L.snapshot lvl b;
  Buffer.to_bytes b

let restore lvl bytes = ignore (L.restore lvl bytes 0)

let mk_cfg policy ways =
  L.config ~policy ~size_bytes:(block_bytes * ways) ~block_bytes ~ways ()

(* Whether the engine skips repeat promotes for this configuration:
   the set-associative loop's fused span does for hit-idempotent
   policies.  A 1-way level runs the direct-mapped loop instead, which
   performs every promote, so nothing is skipped at one way. *)
let idem_exploited (policy : L.policy) ~ways =
  ways > 1
  &&
  match policy with
  | Lru | Tree_plru | Mru -> true
  | Qlru_h11_m1_r1_u2 | Qlru_h11_m1_r0_u0 -> false

let phase_str = function T.Mutator -> "mut" | T.Collector -> "col"

(* --- Prong 1: exhaustive state enumeration ------------------------------ *)

(* Abstract state = (number of valid ways, spec metadata).  Fills take
   the lowest invalid way first, so validity is always a prefix and a
   single count suffices.  Blocks are anonymous in the key: policy
   updates depend only on way indices, so quotienting by block
   renaming is exact, and each node keeps one concrete representative
   engine snapshot to realize transitions on. *)

let state_key (s : Spec.state) k =
  let b = Buffer.create 32 in
  Buffer.add_string b (string_of_int k);
  Array.iter
    (fun x ->
      Buffer.add_char b ',';
      Buffer.add_string b (string_of_int x))
    s.Spec.v;
  Buffer.contents b

let resident_max lvl ways =
  let m = ref (-1) in
  for w = 0 to ways - 1 do
    let t = L.line_tag lvl ~set:0 ~way:w in
    if t > !m then m := t
  done;
  !m

let enumerate ctx ?mutate policy ~ways =
  let cfg = mk_cfg policy ways in
  let scratch = L.create cfg in
  let scratch2 = L.create cfg in
  let idem = idem_exploited policy ~ways in
  let seen = Hashtbl.create 4096 in
  let q = Queue.create () in
  let s0 = Spec.init ?mutate policy ~ways in
  let rep0 = snap (L.create cfg) in
  Hashtbl.add seen (state_key s0 0) ();
  Queue.add (s0, 0, rep0) q;
  let states = ref 0
  and transitions = ref 0
  and idem_violations = ref 0 in
  let enqueue s k rep =
    let key = state_key s k in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      Queue.add (s, k, rep) q
    end
  in
  (* The promote a hint hit would skip must be a no-op for policies the
     fused span runs on; [rw] is the way the transition resolved. *)
  let check_hint_sound s' rw what =
    if idem && not (Spec.equal (Spec.promote s' rw) s') then
      fail ctx "policy.hint-sound"
        "promote after %s of way %d is not a no-op: %s -> %s" what rw
        (Spec.to_string s')
        (Spec.to_string (Spec.promote s' rw))
  in
  while (not (Queue.is_empty q)) && not (saturated ctx) do
    let s, k, rep = Queue.pop q in
    incr states;
    (* snapshot/restore bijectivity on the representative *)
    restore scratch rep;
    let rs = snap scratch in
    if not (Bytes.equal rs rep) then
      fail ctx "policy.snapshot"
        "snapshot -> restore -> snapshot not byte-identical at state %s"
        (Spec.to_string s);
    (* the engine's packed words must decode to the spec state *)
    let d = Spec.decode scratch ~set:0 in
    if not (Spec.equal d s) then
      fail ctx "policy.spec-conform"
        "representative decodes to %s, spec says %s" (Spec.to_string d)
        (Spec.to_string s);
    (* LRU stack property: ranks are a permutation of 0..ways-1 *)
    (match policy with
    | L.Lru ->
      let hit = Array.make ways false in
      Array.iter
        (fun r -> if r >= 0 && r < ways then hit.(r) <- true)
        s.Spec.v;
      if not (Array.for_all Fun.id hit) then
        fail ctx "policy.lru-stack" "ranks are not a permutation: %s"
          (Spec.to_string s)
    | _ -> ());
    (* promote idempotence, per resident way *)
    for w = 0 to k - 1 do
      let s1 = Spec.promote s w in
      if not (Spec.equal (Spec.promote s1 w) s1) then
        if idem then
          fail ctx "policy.promote-idem"
            "double hit on way %d diverges: %s -> %s -> %s" w
            (Spec.to_string s) (Spec.to_string s1)
            (Spec.to_string (Spec.promote s1 w))
        else incr idem_violations
    done;
    (* victim preview: right way, and normalization matches the spec *)
    restore scratch2 rep;
    let vp = L.victim_preview scratch2 ~set:0 in
    let expected_victim =
      if k < ways then k else Spec.victim (Spec.normalize s)
    in
    if vp <> expected_victim then
      fail ctx "policy.victim-valid"
        "victim_preview says way %d at state %s (%d valid), spec says %d" vp
        (Spec.to_string s) k expected_victim;
    if
      k = ways
      && (vp < 0 || vp >= ways || not (L.line_valid scratch2 ~set:0 ~way:vp))
    then
      fail ctx "policy.victim-valid"
        "victim_preview chose a non-resident way %d at full state %s" vp
        (Spec.to_string s);
    (* a full-set preview normalizes exactly as the spec does; with an
       invalid way left the engine must not touch the metadata at all *)
    let dn = Spec.decode scratch2 ~set:0 in
    let n = if k = ways then Spec.normalize s else s in
    if not (Spec.equal dn n) then
      fail ctx "policy.victim-valid"
        "preview normalization left %s, spec says %s" (Spec.to_string dn)
        (Spec.to_string n);
    (* hit transitions *)
    for w = 0 to k - 1 do
      incr transitions;
      restore scratch rep;
      let b = L.line_tag scratch ~set:0 ~way:w in
      L.access scratch (b * block_bytes) T.Read T.Mutator;
      ctx.cevents <- ctx.cevents + 1;
      let s' = Spec.promote s w in
      let d = Spec.decode scratch ~set:0 in
      if not (Spec.equal d s') then
        fail ctx "policy.spec-conform"
          "hit on way %d at %s: engine reached %s, spec says %s" w
          (Spec.to_string s) (Spec.to_string d) (Spec.to_string s')
      else begin
        check_hint_sound s' w "a hit";
        enqueue s' k (snap scratch)
      end
    done;
    (* the miss transition *)
    incr transitions;
    restore scratch rep;
    let fresh = resident_max scratch ways + 1 in
    let sn, fway, k' =
      if k < ways then (s, k, k + 1)
      else
        let n = Spec.normalize s in
        (n, Spec.victim n, ways)
    in
    L.access scratch (fresh * block_bytes) T.Read T.Mutator;
    ctx.cevents <- ctx.cevents + 1;
    let landed = ref (-1) in
    for w = 0 to ways - 1 do
      if L.line_tag scratch ~set:0 ~way:w = fresh then landed := w
    done;
    if !landed <> fway then
      fail ctx "policy.victim-valid"
        "miss at %s (%d valid) filled way %d, spec victim is %d"
        (Spec.to_string s) k !landed fway
    else begin
      let s' = Spec.fill sn fway in
      let d = Spec.decode scratch ~set:0 in
      if not (Spec.equal d s') then
        fail ctx "policy.spec-conform"
          "miss fill of way %d at %s: engine reached %s, spec says %s" fway
          (Spec.to_string s) (Spec.to_string d) (Spec.to_string s')
      else begin
        check_hint_sound s' fway "a fill";
        enqueue s' k' (snap scratch)
      end
    end
  done;
  (!states, !transitions, !idem_violations)

(* --- Prong 2: sequence differential ------------------------------------- *)

(* One symbol of the access alphabet: blocks 0 and 1 are always fresh
   relative to the warm prefix (which alloc-writes blocks 3..ways+2,
   leaving every line dirty with only word 0 valid), block 3 is
   resident from it, word 3 of a write-validated line starts invalid,
   and the collector phase flips the fetch-on-write rule. *)
let sym_blocks = [| 0; 1; 3 |]
let sym_kinds = [| T.Read; T.Write; T.Alloc_write |]
let sym_words = [| 0; 3 |]
let sym_phases = [| T.Mutator; T.Collector |]

let num_symbols =
  Array.length sym_blocks * Array.length sym_kinds * Array.length sym_words
  * Array.length sym_phases

let symbol i =
  let b = sym_blocks.(i mod 3) in
  let i = i / 3 in
  let k = sym_kinds.(i mod 3) in
  let i = i / 3 in
  let w = sym_words.(i mod 2) in
  let ph = sym_phases.(i / 2) in
  (C.pack ((b * block_bytes) + (w * 4)) k ph, b, k, ph)

type hook_ev = Fetch of int * T.phase | Wb of int * T.phase

let hook_str = function
  | Fetch (a, ph) -> Printf.sprintf "fetch(%#x,%s)" a (phase_str ph)
  | Wb (a, ph) -> Printf.sprintf "wb(%#x,%s)" a (phase_str ph)

let decode_emitted word =
  let a = word lsr 3 in
  let ph = if word land 1 = 0 then T.Mutator else T.Collector in
  match (word lsr 1) land 3 with
  | 0 -> Some (Fetch (a, ph))
  | 3 -> Some (Wb (a, ph))
  | _ -> None

(* One line's (tag, dirty, low valid mask) for the write-back /
   fetch-discipline audit; 16-byte blocks never use the high mask. *)
let lines lvl ways =
  Array.init ways (fun w ->
      ( L.line_tag lvl ~set:0 ~way:w,
        L.line_dirty lvl ~set:0 ~way:w,
        fst (L.line_valid_words lvl ~set:0 ~way:w) ))

(* Write-back conservation and fetch discipline for one event, judged
   from the before/after line introspection: a dirty eviction emits
   exactly one write-back of exactly that block (and a clean one emits
   none), and a fetch fires exactly when Level's documented rules say
   — read miss, read of an unvalidated word, or a collector store
   under collector fetch-on-write. *)
let audit ctx before after fired b kind ph addr seqlen =
  let wbs =
    List.filter_map (function Wb (a, p) -> Some (a, p) | Fetch _ -> None) fired
  in
  let fetches =
    List.filter_map (function Fetch (a, p) -> Some (a, p) | Wb _ -> None) fired
  in
  let evicted = ref [] in
  Array.iteri
    (fun w (t, d, _) ->
      let t', _, _ = after.(w) in
      if t >= 0 && t <> t' then evicted := (t, d) :: !evicted)
    before;
  (match (!evicted, wbs) with
  | [], [] -> ()
  | [ (t, true) ], [ (a, p) ] ->
    if a <> t * block_bytes || p <> ph then
      fail ctx "policy.wb-conserve"
        "event %d: write-back of %#x (%s), but block %d was evicted (%s)"
        seqlen a (phase_str p) t (phase_str ph)
  | [ (_, false) ], [] -> ()
  | [ (t, true) ], [] ->
    fail ctx "policy.wb-conserve" "event %d: dirty block %d evicted with no write-back"
      seqlen t
  | [ (t, _) ], _ :: _ :: _ ->
    fail ctx "policy.wb-conserve"
      "event %d: block %d written back more than once on one eviction" seqlen t
  | [ (t, false) ], _ :: _ ->
    fail ctx "policy.wb-conserve"
      "event %d: clean block %d evicted yet a write-back fired" seqlen t
  | [], _ :: _ ->
    fail ctx "policy.wb-conserve" "event %d: write-back fired without an eviction"
      seqlen
  | _ :: _ :: _, _ ->
    fail ctx "policy.wb-conserve" "event %d: more than one eviction in one access"
      seqlen);
  let hit_vlo =
    Array.fold_left
      (fun acc (t, _, vlo) -> if t = b then Some vlo else acc)
      None before
  in
  let word = (addr lsr 2) land 3 in
  let expect_fetch =
    match (hit_vlo, kind) with
    | Some vlo, T.Read -> vlo land (1 lsl word) = 0
    | Some _, (T.Write | T.Alloc_write) -> false
    | None, T.Read -> true
    | None, (T.Write | T.Alloc_write) -> (
      (* write-validate, collector fetch-on-write — the part-2 config *)
      match ph with T.Mutator -> false | T.Collector -> true)
  in
  match (expect_fetch, fetches) with
  | false, [] -> ()
  | true, [ (a, p) ] ->
    if a <> b * block_bytes || p <> ph then
      fail ctx "policy.spec-conform"
        "event %d: fetch of %#x (%s) where block %d (%s) was expected" seqlen a
        (phase_str p) b (phase_str ph)
  | true, [] ->
    fail ctx "policy.spec-conform" "event %d: expected a fetch of block %d, none fired"
      seqlen b
  | false, _ :: _ ->
    fail ctx "policy.spec-conform" "event %d: unexpected fetch for block %d" seqlen b
  | true, _ :: _ ->
    fail ctx "policy.spec-conform" "event %d: more than one fetch for block %d"
      seqlen b

let differential ctx ?mutate policy ~ways ~budget =
  let cfg = mk_cfg policy ways in
  let impl_e = L.create cfg in
  (* the hooked per-event oracle *)
  let impl_c = L.create cfg in
  (* single-event chunks via the emitting entry point *)
  let hooks = ref [] in
  L.set_fill_hook impl_e
    ~on_fetch:(fun a ph -> hooks := Fetch (a, ph) :: !hooks)
    ~on_writeback:(fun a ph -> hooks := Wb (a, ph) :: !hooks);
  let ebuf = C.create_buf 1 in
  let eout = C.create_buf 2 in
  let prefix =
    List.init ways (fun i ->
        C.pack ((3 + i) * block_bytes) T.Alloc_write T.Mutator)
  in
  List.iter
    (fun w ->
      let a, k, ph = C.unpack w in
      L.access impl_e a k ph;
      Bigarray.Array1.set ebuf 0 w;
      ignore (L.access_chunk_emit impl_c ebuf 0 1 ~out:eout ~pos:0);
      ctx.cevents <- ctx.cevents + 2)
    prefix;
  let spec_after_prefix =
    (* prefix fills take ways 0,1,... in order on the empty set *)
    let s = ref (Spec.init ?mutate policy ~ways) in
    List.iteri (fun i _ -> s := Spec.fill !s i) prefix;
    !s
  in
  let nodes = ref 0 in
  let max_depth = 6 in
  (* Breadth-first over sequences so a bounded budget buys the whole
     shallow tree (every pair, most triples) instead of one deep
     corner.  Each edge restores both engines from the node snapshots,
     applies one symbol, cross-checks, then replays the entire
     sequence from scratch as one chunk — the fused fast_span path. *)
  let q = Queue.create () in
  Queue.add
    (snap impl_e, snap impl_c, spec_after_prefix, List.rev prefix, [], 0)
    q;
  while (not (Queue.is_empty q)) && !nodes < budget && not (saturated ctx) do
    let snap_e, snap_c, spec, seq, emitted, depth = Queue.pop q in
    let j = ref 0 in
    while !j < num_symbols && !nodes < budget && not (saturated ctx) do
      incr nodes;
      let word, b, kind, ph = symbol !j in
      incr j;
      let addr = C.addr word in
      restore impl_e snap_e;
      restore impl_c snap_c;
      let before = lines impl_e ways in
      hooks := [];
      L.access impl_e addr kind ph;
      Bigarray.Array1.set ebuf 0 word;
      let oend = L.access_chunk_emit impl_c ebuf 0 1 ~out:eout ~pos:0 in
      ctx.cevents <- ctx.cevents + 2;
      let after = lines impl_e ways in
      let fired = List.rev !hooks in
      let seqlen = List.length seq in
      (* chunked path == per-event path, full state including counters
         (hooks are wiring, not state, so snapshots are comparable) *)
      let se = snap impl_e and sc = snap impl_c in
      if not (Bytes.equal se sc) then
        fail ctx "policy.hint-sound"
          "chunked path diverged from per-event path at event %d" seqlen;
      (* the emitted miss stream must be exactly the hook stream *)
      let emitted_now = List.init oend (Bigarray.Array1.get eout) in
      let decoded = List.filter_map decode_emitted emitted_now in
      if List.length decoded <> List.length emitted_now || decoded <> fired
      then
        fail ctx "policy.wb-conserve"
          "event %d: emit stream [%s] != hook stream [%s]" seqlen
          (String.concat ";" (List.map hook_str decoded))
          (String.concat ";" (List.map hook_str fired));
      audit ctx before after fired b kind ph addr seqlen;
      (* spec policy lockstep *)
      let hitw = ref (-1) and valid_count = ref 0 in
      Array.iteri
        (fun w (t, _, _) ->
          if t >= 0 then incr valid_count;
          if t = b then hitw := w)
        before;
      let spec' =
        if !hitw >= 0 then Spec.promote spec !hitw
        else if !valid_count < ways then Spec.fill spec !valid_count
        else
          let n = Spec.normalize spec in
          Spec.fill n (Spec.victim n)
      in
      let d = Spec.decode impl_e ~set:0 in
      if not (Spec.equal d spec') then
        fail ctx "policy.spec-conform"
          "sequence event %d (block %d): engine metadata %s, spec says %s"
          seqlen b (Spec.to_string d) (Spec.to_string spec');
      (* whole-sequence replay through fresh levels *)
      let seq' = word :: seq in
      let arr = Array.of_list (List.rev seq') in
      let cbuf = C.of_array arr in
      let fresh = L.create cfg in
      L.access_chunk fresh cbuf 0 (Array.length arr);
      ctx.cevents <- ctx.cevents + Array.length arr;
      if not (Bytes.equal (snap fresh) se) then
        fail ctx "policy.hint-sound"
          "one-chunk replay of %d events diverged from the per-event path"
          (Array.length arr);
      let fresh_e = L.create cfg in
      let big_out = C.create_buf (2 * Array.length arr) in
      let bend =
        L.access_chunk_emit fresh_e cbuf 0 (Array.length arr) ~out:big_out
          ~pos:0
      in
      ctx.cevents <- ctx.cevents + Array.length arr;
      let emitted' = emitted @ emitted_now in
      let big = List.init bend (Bigarray.Array1.get big_out) in
      if big <> emitted' then
        fail ctx "policy.wb-conserve"
          "one-chunk emit replay produced %d stream words, stepwise emission \
           produced %d"
          (List.length big) (List.length emitted');
      if not (Bytes.equal (snap fresh_e) se) then
        fail ctx "policy.hint-sound"
          "emitting one-chunk replay of %d events diverged from the \
           per-event path"
          (Array.length arr);
      if depth + 1 < max_depth then
        Queue.add (se, sc, spec', seq', emitted', depth + 1) q
    done
  done;
  !nodes

(* --- LRU stack inclusion ------------------------------------------------- *)

(* Mattson inclusion: under LRU the resident set of a ways/2 level is
   contained in the ways level's after every prefix of every read
   sequence — the stack property, checked on the engine itself as a
   complement to the per-state rank-permutation invariant. *)
let stack_inclusion ctx ~ways ~budget =
  if ways < 2 then 0
  else begin
    let half = ways / 2 in
    let big = L.create (mk_cfg L.Lru ways) in
    let small = L.create (mk_cfg L.Lru half) in
    let resident lvl w =
      List.filter_map
        (fun y ->
          let t = L.line_tag lvl ~set:0 ~way:y in
          if t >= 0 then Some t else None)
        (List.init w Fun.id)
    in
    let nodes = ref 0 in
    let nblocks = ways + 1 in
    let q = Queue.create () in
    Queue.add (snap big, snap small, 0) q;
    while (not (Queue.is_empty q)) && !nodes < budget && not (saturated ctx)
    do
      let snap_b, snap_s, depth = Queue.pop q in
      let b = ref 0 in
      while !b < nblocks && !nodes < budget && not (saturated ctx) do
        incr nodes;
        restore big snap_b;
        restore small snap_s;
        L.access big (!b * block_bytes) T.Read T.Mutator;
        L.access small (!b * block_bytes) T.Read T.Mutator;
        ctx.cevents <- ctx.cevents + 2;
        let rb = resident big ways and rs = resident small half in
        if not (List.for_all (fun t -> List.mem t rb) rs) then
          fail ctx "policy.lru-stack"
            "inclusion violated: %d-way holds {%s}, %d-way holds {%s}" half
            (String.concat "," (List.map string_of_int rs))
            ways
            (String.concat "," (List.map string_of_int rb));
        if depth + 1 < 2 * ways then
          Queue.add (snap big, snap small, depth + 1) q;
        incr b
      done
    done;
    !nodes
  end

(* --- Driver -------------------------------------------------------------- *)

let check ?mutate ?(budget = 4000) policy ~ways =
  let ctx =
    {
      cfindings = [];
      nfindings = 0;
      cevents = 0;
      label = Printf.sprintf "%s/%d" (L.policy_label policy) ways;
    }
  in
  let states, transitions, idem_violations =
    enumerate ctx ?mutate policy ~ways
  in
  let sequences = differential ctx ?mutate policy ~ways ~budget in
  let sequences =
    match policy with
    | L.Lru -> sequences + stack_inclusion ctx ~ways ~budget:(budget / 4)
    | _ -> sequences
  in
  let idem = idem_exploited policy ~ways in
  (* completeness of the engine's fast-path classification: a policy
     excluded from the fused span must actually need the exclusion
     (no span runs at one way, so nothing is excluded there) *)
  if ways > 1 && (not idem) && idem_violations = 0 && mutate = None then
    ctx.cfindings <-
      F.v ~severity:F.Warning ~rule:"policy.promote-idem" ~file:level_file
        (Printf.sprintf
           "%s: promote was idempotent on every reachable state, yet the \
            fused fast path excludes this policy"
           ctx.label)
      :: ctx.cfindings;
  {
    policy;
    ways;
    states;
    transitions;
    sequences;
    events = ctx.cevents;
    idem_exploited = idem;
    idem_violations;
    findings = List.rev ctx.cfindings;
  }

let properties =
  [
    "spec-conform";
    "promote-idem";
    "hint-sound";
    "victim-valid";
    "snapshot";
    "lru-stack";
    "wb-conserve";
  ]

let certificate reports =
  let open Obs.Json in
  let config_json r =
    let failed rule =
      List.exists
        (fun f -> String.equal f.F.rule ("policy." ^ rule) && F.is_error f)
        r.findings
    in
    let prop_status p =
      if failed p then Str "failed"
      else if String.equal p "lru-stack" && r.policy <> L.Lru then Str "n/a"
      else if String.equal p "promote-idem" && not r.idem_exploited then
        Str "not-exploited"
      else Str "verified"
    in
    Obj
      [
        ("policy", Str (L.policy_label r.policy));
        ("ways", Int r.ways);
        ("states", Int r.states);
        ("transitions", Int r.transitions);
        ("sequences", Int r.sequences);
        ("events", Int r.events);
        ("promote_idem_exploited", Bool r.idem_exploited);
        ("promote_idem_violations", Int r.idem_violations);
        ("findings", Int (List.length r.findings));
        ("properties", Obj (List.map (fun p -> (p, prop_status p)) properties));
      ]
  in
  let all_findings = List.concat_map (fun r -> r.findings) reports in
  Obj
    [
      ("tool", Str "policy_check");
      ("version", Int 1);
      ( "status",
        Str (if F.has_errors all_findings then "failed" else "verified") );
      ("properties", List (List.map (fun p -> Str p) properties));
      ("configs", List (List.map config_json reports));
      ("findings", F.list_to_json all_findings);
    ]
