(* conformance: the mass-corpus differential driver (docs/CONFORMANCE.md).

     conformance [--n N] [--seed S] [--ledger PATH|-] [--expected PATH]
                 [--pipeline SPEC] [--daemon] [--router] [--tiered]
                 [--shards K] [--connections K] [--domains D]
                 [--observe JSON] [--quiet]

   Runs N seeded corpus programs through the full
   {scheme} x {mode} x {pipeline} differential matrix in-process,
   renders the ledger, and exits nonzero on any unexplained divergence —
   after shrinking each one to a minimal reproducer.  [--expected] diffs
   the ledger against a committed golden ([test/corpus_ledger.expected]);
   [--daemon] additionally replays the whole corpus through a live
   in-process mompd over K client sessions, reporting compiles/sec cold
   and warm and requiring byte-identity with in-process compilation;
   [--router] does the same through a fleet router fronting --shards
   supervised daemon shards (cold + warm, byte-identity required);
   [--pipeline SPEC] replays the matrix with an explicit
   pipeline in the optimized column — `--pipeline fast` asserts the fast
   tier's deltas against the reference are all classified by the ledger,
   i.e. the tier introduces no NEW unsoundness; [--tiered] measures the
   tiered daemon (cold p50 per tier, upgrade throughput, post-upgrade
   byte-identity) and merges a schema-stamped "tiers" section with
   [--observe]; [--observe FILE] merges the resulting schema-stamped
   "corpus" (and "tiers") sections into an existing BENCH_observe.json.

   Exit codes: 0 conformant, 1 unexplained divergence or ledger drift or
   daemon mismatch, 2 usage/environment error. *)

let die fmt = Fmt.kstr (fun s -> prerr_endline ("conformance: " ^ s); exit 2) fmt

let usage () =
  prerr_endline
    "usage: conformance [--n N] [--seed S] [--ledger PATH|-] [--expected PATH]\n\
    \                   [--pipeline SPEC] [--daemon] [--router] [--tiered]\n\
    \                   [--shards K] [--connections K] [--domains D]\n\
    \                   [--observe JSON] [--quiet]";
  exit 2

type opts = {
  mutable n : int;
  mutable seed : int64;
  mutable ledger : string option;
  mutable expected : string option;
  mutable daemon : bool;
  mutable router : bool;
  mutable shards : int;
  mutable connections : int;
  mutable domains : int;
  mutable observe : string option;
  mutable quiet : bool;
  mutable only : int option;
  mutable pipeline : Ompgpu_api.Pipeline.t option;
  mutable tiered : bool;
}

let parse_args () =
  let o =
    {
      n = 1000;
      seed = 42L;
      ledger = None;
      expected = None;
      daemon = false;
      router = false;
      shards = 2;
      connections = 4;
      domains = 2;
      observe = None;
      quiet = false;
      only = None;
      pipeline = None;
      tiered = false;
    }
  in
  let pos_int name v =
    match int_of_string_opt v with
    | Some n when n > 0 -> n
    | _ -> die "%s expects a positive integer (got %S)" name v
  in
  let rec parse = function
    | [] -> ()
    | "--n" :: v :: rest ->
      o.n <- pos_int "--n" v;
      parse rest
    | "--seed" :: v :: rest ->
      (match Int64.of_string_opt v with
      | Some s -> o.seed <- s
      | None -> die "--seed expects an integer (got %S)" v);
      parse rest
    | "--ledger" :: v :: rest ->
      o.ledger <- Some v;
      parse rest
    | "--expected" :: v :: rest ->
      o.expected <- Some v;
      parse rest
    | "--daemon" :: rest ->
      o.daemon <- true;
      parse rest
    | "--router" :: rest ->
      o.router <- true;
      parse rest
    | "--shards" :: v :: rest ->
      o.shards <- pos_int "--shards" v;
      parse rest
    | "--connections" :: v :: rest ->
      o.connections <- pos_int "--connections" v;
      parse rest
    | "--domains" :: v :: rest ->
      o.domains <- pos_int "--domains" v;
      parse rest
    | "--observe" :: v :: rest ->
      o.observe <- Some v;
      parse rest
    | "--pipeline" :: v :: rest ->
      (match Ompgpu_api.Pipeline.of_string v with
      | Ok p -> o.pipeline <- Some p
      | Error msg -> die "--pipeline: %s" msg);
      parse rest
    | "--tiered" :: rest ->
      o.tiered <- true;
      parse rest
    | "--quiet" :: rest ->
      o.quiet <- true;
      parse rest
    | "--only" :: v :: rest ->
      o.only <- Some (match int_of_string_opt v with
        | Some n when n >= 0 -> n
        | _ -> die "--only expects a non-negative program index (got %S)" v);
      parse rest
    | ("--help" | "-h") :: _ -> usage ()
    | a :: _ -> die "unknown argument %S (try --help)" a
  in
  parse (List.tl (Array.to_list Sys.argv));
  o

(* Merge one named member ("corpus", "tiers") into an existing
   BENCH_observe.json without disturbing anything else in it. *)
let merge_observe path member_name member_json =
  let base =
    match In_channel.with_open_text path In_channel.input_all with
    (* a missing file starts from an empty object: conformance can seed a
       fresh observe file that bench/main.exe later fills in *)
    | exception Sys_error _ -> Observe.Json.Obj []
    | s -> (
      match Observe.Json.of_string s with
      | Ok j -> j
      | Error msg -> die "--observe: %s: %s" path msg)
  in
  let merged =
    match base with
    | Observe.Json.Obj members ->
      Observe.Json.Obj
        (List.filter (fun (k, _) -> not (String.equal k member_name)) members
        @ [ (member_name, member_json) ])
    | _ -> die "--observe: %s: top level is not an object" path
  in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Observe.Json.to_string merged);
      Out_channel.output_char oc '\n')

(* --only I: print one program of the corpus and its raw per-cell
   observations — how a ledger line is turned back into a reproduction. *)
let dump_program ~root index =
  let prog = Corpus.Gen.generate (Corpus.Gen.program_stream ~root index) in
  Fmt.pr "# corpus program %d of seed %Ld@.%a@." index root Corpus.Gen.pp prog;
  List.iter
    (fun cell ->
      Fmt.pr "%-22s %s@." (Corpus.Matrix.cell_name cell)
        (Corpus.Matrix.observe cell prog))
    Corpus.Matrix.cells

let () =
  (* replays boot servers in this process: a peer closing mid-write must
     be an error on that connection, not a process-killing SIGPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let o = parse_args () in
  (match o.only with
  | Some i ->
    dump_program ~root:o.seed i;
    exit 0
  | None -> ());
  (* the committed golden pins the FULL-pipeline ledger; diffing a
     replay under another pipeline against it would always "drift" *)
  (match (o.pipeline, o.expected) with
  | Some _, Some _ ->
    die "--pipeline and --expected are mutually exclusive (the golden \
         ledger pins the full-pipeline matrix)"
  | _ -> ());
  let failed = ref false in
  let progress = ref 0 in
  let t0 = Unix.gettimeofday () in
  let on_program (_ : Corpus.Matrix.program_result) =
    incr progress;
    if (not o.quiet) && !progress mod 100 = 0 then
      Fmt.epr "conformance: %d/%d programs@." !progress o.n
  in
  let results =
    Corpus.Matrix.run ?pipeline:o.pipeline ~on_program ~root:o.seed ~n:o.n ()
  in
  let matrix_s = Unix.gettimeofday () -. t0 in
  let ledger_text = Corpus.Ledger.render ~root:o.seed results in
  (match o.ledger with
  | Some "-" -> print_string ledger_text
  | Some path ->
    Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc ledger_text)
  | None -> ());
  let t = Corpus.Ledger.totals results in
  if not o.quiet then begin
    (match o.pipeline with
    | Some p ->
      Fmt.pr "conformance: optimized column replayed under pipeline %s@."
        (Ompgpu_api.Pipeline.to_string p)
    | None -> ());
    Fmt.pr "conformance: %d programs, %d cells: %d pass, %d known-divergence, %d fail \
            (%.1fs in-process)@."
      o.n t.Corpus.Ledger.cells t.Corpus.Ledger.pass t.Corpus.Ledger.known
      t.Corpus.Ledger.fail matrix_s;
    List.iter
      (fun (cls, count) -> Fmt.pr "  class %-24s %d cells@." cls count)
      (Corpus.Ledger.class_counts results)
  end;
  (* every unexplained divergence ships as a minimized reproducer *)
  List.iter
    (fun ((r : Corpus.Matrix.program_result), (cr : Corpus.Matrix.cell_result)) ->
      failed := true;
      let cell = cr.Corpus.Matrix.cell in
      let small =
        Corpus.Matrix.shrink_failure ?pipeline:o.pipeline cell
          r.Corpus.Matrix.prog
      in
      Fmt.epr
        "conformance: UNEXPLAINED divergence: prog=%d cell=%s (seed %Ld)@.\
         minimized reproducer (mode %s):@.%s@."
        r.Corpus.Matrix.index
        (Corpus.Matrix.cell_name cell)
        o.seed
        (Corpus.Gen.mode_name cell.Corpus.Matrix.mode)
        (Corpus.Gen.render ~mode:cell.Corpus.Matrix.mode small))
    (Corpus.Matrix.failures results);
  (match o.expected with
  | None -> ()
  | Some path -> (
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error msg -> die "--expected: %s" msg
    | expected -> (
      match Corpus.Ledger.diff ~expected ~actual:ledger_text with
      | Ok () -> if not o.quiet then Fmt.pr "ledger matches %s@." path
      | Error report ->
        failed := true;
        Fmt.epr "conformance: ledger drift vs %s:@.%s@." path report)));
  (* each replay prints its section and fails the run unless every answer
     was byte-identical to in-process compilation *)
  let replay name section =
    Fmt.pr "%s: %s@." name (Replay.summary section);
    if not (Replay.byte_identical section) then begin
      failed := true;
      Fmt.epr "conformance: %s replay diverged from in-process compilation@." name
    end;
    section
  in
  let merge member section =
    Option.iter (fun path -> merge_observe path member section) o.observe
  in
  if o.daemon then
    merge "corpus"
      (replay "daemon"
         (Replay.daemon ~connections:o.connections ~domains:o.domains
            ~root:o.seed ~n:o.n))
  else if o.observe <> None && not o.tiered then
    die "--observe requires --daemon or --tiered (it merges daemon-measured \
         sections)";
  (* tiered daemon vs untiered daemon on the tier-eligible slice: cold
     p50 must drop, and post-upgrade answers must be byte-identical to
     one-shot full-pipeline compiles *)
  if o.tiered then
    merge "tiers"
      (replay "tiers"
         (Replay.tiers ~connections:o.connections ~domains:o.domains
            ~root:o.seed ~n:o.n));
  (* the same corpus, the same byte-identity bar, but through the fleet:
     a router + shards answer must match the in-process facade exactly *)
  if o.router then
    ignore
      (replay "router"
         (Replay.fleet ~connections:o.connections ~shards:o.shards
            ~domains:o.domains ~root:o.seed ~n:o.n));
  if !failed then exit 1
