(* The conformance corpus: PRNG stability, generator determinism, the
   differential matrix, the committed ledger, and the daemon traffic
   generator.  The pinned constants here are load-bearing: the corpus
   promises bit-identical programs from a seed on any OCaml version, and
   the cache key promises that no config change can silently alias a
   cached compile — both promises are only as good as their goldens. *)

let check = Alcotest.check
let checki = check Alcotest.int
let checks = check Alcotest.string
let check64 = check Alcotest.int64

(* ------------------------------------------------------------------ *)
(* SplitMix64                                                          *)
(* ------------------------------------------------------------------ *)

(* The raw 64-bit stream is pinned forever: these are the reference
   SplitMix64 outputs for the given seeds, so a reimplementation (or an
   OCaml upgrade changing some library this leaned on) cannot silently
   reshuffle every corpus. *)
let splitmix_golden () =
  let t = Corpus.Splitmix.create 1L in
  check64 "draw 1 of seed 1" (-7995527694508729151L) (Corpus.Splitmix.next t);
  check64 "draw 2 of seed 1" (-4689498862643123097L) (Corpus.Splitmix.next t);
  check64 "draw 3 of seed 1" (-534904783426661026L) (Corpus.Splitmix.next t);
  let u = Corpus.Splitmix.create 42L in
  checks "bounded draws of seed 42" "3,2,4,1,2,5,1,7"
    (String.concat ","
       (List.init 8 (fun _ -> string_of_int (Corpus.Splitmix.int u 10))));
  let s = Corpus.Splitmix.split (Corpus.Splitmix.create 42L) "prog#0" in
  check64 "split stream prog#0 of seed 42" (-4158802791444587499L)
    (Corpus.Splitmix.next s)

let splitmix_streams () =
  (* equal seeds, equal streams *)
  let a = Corpus.Splitmix.create 7L and b = Corpus.Splitmix.create 7L in
  for i = 1 to 100 do
    check64 (Printf.sprintf "lockstep draw %d" i) (Corpus.Splitmix.next a)
      (Corpus.Splitmix.next b)
  done;
  (* a copy diverges from nothing: it replays the original's future *)
  let c = Corpus.Splitmix.copy a in
  let expect = List.init 10 (fun _ -> Corpus.Splitmix.next a) in
  List.iteri
    (fun i v -> check64 (Printf.sprintf "copy draw %d" i) v (Corpus.Splitmix.next c))
    expect;
  (* split depends on (seed, label), not on the parent's position *)
  let fresh = Corpus.Splitmix.split (Corpus.Splitmix.create 7L) "x" in
  let advanced =
    let p = Corpus.Splitmix.create 7L in
    ignore (Corpus.Splitmix.next p);
    ignore (Corpus.Splitmix.next p);
    Corpus.Splitmix.split p "x"
  in
  check64 "split is position-insensitive" (Corpus.Splitmix.next fresh)
    (Corpus.Splitmix.next advanced);
  (* bounded draws stay in bounds, including awkward bounds *)
  let r = Corpus.Splitmix.create 99L in
  List.iter
    (fun bound ->
      for _ = 1 to 200 do
        let v = Corpus.Splitmix.int r bound in
        if v < 0 || v >= bound then
          Alcotest.failf "Splitmix.int %d drew %d" bound v
      done)
    [ 1; 2; 3; 7; 255; 1 lsl 20 ]

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)
(* ------------------------------------------------------------------ *)

let generator_deterministic () =
  for i = 0 to 15 do
    let p1 = Corpus.Gen.generate (Corpus.Gen.program_stream ~root:42L i) in
    let p2 = Corpus.Gen.generate (Corpus.Gen.program_stream ~root:42L i) in
    checks
      (Printf.sprintf "program %d regenerates identically" i)
      (Corpus.Gen.render ~mode:Corpus.Gen.Generic p1)
      (Corpus.Gen.render ~mode:Corpus.Gen.Generic p2)
  done

(* the first programs of the canonical corpus (root 42) are pinned by
   digest: a grammar or PRNG change that reshuffles the corpus must show
   up as an intentional diff here and in test/corpus_ledger.expected *)
let generator_golden () =
  let renders =
    List.init 8 (fun i ->
        Corpus.Gen.render ~mode:Corpus.Gen.Generic
          (Corpus.Gen.generate (Corpus.Gen.program_stream ~root:42L i)))
  in
  checks "digest of corpus programs 0-7 (root 42)" "383b5f9ae97fb8d4"
    (String.sub (Sched.Cache.key ("corpus-renders" :: renders)) 0 16)

let generator_escape_invariant () =
  (* the determinism rule the barriers rely on: any program with an
     Escape runs one team whose trip count equals the thread limit *)
  for i = 0 to 199 do
    let p = Corpus.Gen.generate (Corpus.Gen.program_stream ~root:7L i) in
    if Corpus.Gen.has_escape p then
      checki (Printf.sprintf "escape program %d trip count" i) 4 p.Corpus.Gen.outer
  done

(* ------------------------------------------------------------------ *)
(* Cache-key stability (API golden)                                    *)
(* ------------------------------------------------------------------ *)

(* Ompgpu_api.cache_key addresses the disk cache and the daemon's warm
   cache.  Pinning it across schemes, configs and injection fingerprints
   catches both accidental key drift (every cache goes cold) and, worse,
   accidental key collisions (a config change that stops reaching the
   fingerprint would silently serve stale results). *)
let cache_key_golden () =
  let module Api = Ompgpu_api in
  let src = "int main() { return 0; }\n" in
  let key c = Api.cache_key ~file:"golden.c" ~config:c ~source:src in
  let expected =
    [
      (* re-pinned for mompc-cache-v6: api_version 2 keys hash the
         effective pipeline identity, so every pre-v6 key goes cold *)
      ("default", Api.Config.default, "215927b15809826e");
      ( "legacy",
        Api.Config.with_scheme Frontend.Codegen.Legacy Api.Config.default,
        "35a32b0741be8bc7" );
      ( "cuda",
        Api.Config.with_scheme Frontend.Codegen.Cuda Api.Config.default,
        "1679501d9da5882d" );
      ( "full pipeline",
        Api.Config.with_pipeline Api.Pipeline.full Api.Config.default,
        "01b3fc9f66293233" );
      ("sim", Api.Config.with_sim Api.Config.default,
       "277379d18d2f61b6");
      ( "injected",
        Api.Config.with_inject
          [ { Fault.Injector.site = Fault.Injector.Mem_alloc; rate = 0.5; seed = 7 } ]
          Api.Config.default,
        "2f5a2045187a2f14" );
    ]
  in
  List.iter (fun (name, c, k) -> checks ("cache_key " ^ name) k (key c)) expected;
  (* and they are pairwise distinct — the non-aliasing half of the promise *)
  let keys = List.map (fun (_, c, _) -> key c) expected in
  checki "cache keys are pairwise distinct" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  (* the source text joins the key too *)
  if
    String.equal
      (Ompgpu_api.cache_key ~file:"golden.c" ~config:Api.Config.default
         ~source:src)
      (Ompgpu_api.cache_key ~file:"golden.c" ~config:Api.Config.default
         ~source:(src ^ " "))
  then Alcotest.fail "cache_key ignored the source text";
  (* and the file label: diagnostics embed it, so the same source under
     two labels must never share a cache entry (the full-scale corpus
     caught the daemon aliasing exactly this) *)
  if
    String.equal
      (Ompgpu_api.cache_key ~file:"a.c" ~config:Api.Config.default ~source:src)
      (Ompgpu_api.cache_key ~file:"b.c" ~config:Api.Config.default ~source:src)
  then Alcotest.fail "cache_key ignored the file label"

(* ------------------------------------------------------------------ *)
(* Matrix                                                              *)
(* ------------------------------------------------------------------ *)

let matrix_smoke () =
  let results = Corpus.Matrix.run ~root:42L ~n:6 () in
  checki "cells per program"
    (List.length Corpus.Matrix.cells)
    (List.length (List.hd results).Corpus.Matrix.cells);
  (match Corpus.Matrix.failures results with
  | [] -> ()
  | (r, cr) :: _ ->
    Alcotest.failf "unexplained divergence: prog=%d cell=%s" r.Corpus.Matrix.index
      (Corpus.Matrix.cell_name cr.Corpus.Matrix.cell));
  (* every known verdict cites a class the classifier licenses *)
  List.iter
    (fun (r : Corpus.Matrix.program_result) ->
      List.iter
        (fun (cr : Corpus.Matrix.cell_result) ->
          match cr.Corpus.Matrix.verdict with
          | Corpus.Matrix.Known { cls; _ } ->
            (match Corpus.Matrix.classify cr.Corpus.Matrix.cell r.Corpus.Matrix.prog with
            | Some c -> checks "known verdict matches classify" c cls
            | None ->
              Alcotest.failf "known verdict %s in unlicensed cell %s" cls
                (Corpus.Matrix.cell_name cr.Corpus.Matrix.cell))
          | Corpus.Matrix.Pass | Corpus.Matrix.Fail _ -> ())
        r.Corpus.Matrix.cells)
    results

let matrix_cell_names_roundtrip () =
  List.iter
    (fun cell ->
      match Corpus.Matrix.cell_of_name (Corpus.Matrix.cell_name cell) with
      | Some c -> checks "roundtrip" (Corpus.Matrix.cell_name cell) (Corpus.Matrix.cell_name c)
      | None -> Alcotest.failf "cell %s lost by cell_of_name" (Corpus.Matrix.cell_name cell))
    Corpus.Matrix.cells

(* ------------------------------------------------------------------ *)
(* Ledger                                                              *)
(* ------------------------------------------------------------------ *)

let ledger_diff_unit () =
  let ok = function
    | Result.Ok () -> ()
    | Result.Error r -> Alcotest.failf "unexpected ledger diff: %s" r
  in
  ok (Corpus.Ledger.diff ~expected:"a\nb\n" ~actual:"a\nb\n");
  (* comment lines are commentary, not contract *)
  ok (Corpus.Ledger.diff ~expected:"# old note\na\nb\n" ~actual:"a\n# new note\nb\n");
  (match Corpus.Ledger.diff ~expected:"a\nb\n" ~actual:"a\nx\n" with
  | Result.Ok () -> Alcotest.fail "diff missed a changed line"
  | Result.Error _ -> ());
  match Corpus.Ledger.diff ~expected:"a\nb\n" ~actual:"a\n" with
  | Result.Ok () -> Alcotest.fail "diff missed a missing line"
  | Result.Error _ -> ()

(* The committed golden: the small canonical corpus (root 42, 48
   programs — what `make conformance-smoke` runs) renders exactly the
   ledger in test/corpus_ledger.expected. *)
let ledger_golden () =
  let results = Corpus.Matrix.run ~root:42L ~n:48 () in
  let actual = Corpus.Ledger.render ~root:42L results in
  let path =
    (* dune runtest runs in test/; dune exec test/test_main.exe runs in
       the project root *)
    if Sys.file_exists "corpus_ledger.expected" then "corpus_ledger.expected"
    else "test/corpus_ledger.expected"
  in
  let expected = In_channel.with_open_text path In_channel.input_all in
  match Corpus.Ledger.diff ~expected ~actual with
  | Result.Ok () -> ()
  | Result.Error report ->
    Alcotest.failf
      "corpus drifted from test/corpus_ledger.expected:@.%s@.regenerate with:\n\
       dune exec tools/conformance.exe -- --n 48 --seed 42 --ledger \
       test/corpus_ledger.expected" report

(* ------------------------------------------------------------------ *)
(* Daemon replay                                                       *)
(* ------------------------------------------------------------------ *)

let traffic_smoke () =
  let s = Replay.daemon ~connections:2 ~domains:1 ~root:42L ~n:2 in
  let int k = Option.bind (Observe.Json.member k s) Observe.Json.to_int in
  check Alcotest.(option int) "jobs = programs x cells"
    (Some (2 * List.length Corpus.Matrix.cells)) (int "jobs");
  check Alcotest.(option int) "transport errors" (Some 0) (int "transport_errors");
  check Alcotest.bool "daemon answers byte-identical to in-process" true
    (Replay.byte_identical s);
  (* the observe section carries the schema stamp *)
  match s with
  | Observe.Json.Obj (("schema", Observe.Json.Int v) :: _) ->
    checki "corpus section schema" Ompgpu_api.schema_version v
  | _ -> Alcotest.fail "corpus JSON section is not schema-stamped"

(* The verdict can fail: one job's expected output and another's expected
   diagnostics each carry one extra byte, and the tally must name exactly
   those two jobs in both passes — so it compares both fields. *)
let traffic_verdict_can_fail () =
  let jobs = Replay.jobs ~root:42L ~n:1 () in
  let expected = Replay.expected jobs in
  let extra_output = 1 and extra_diagnostics = 2 in
  let e = expected.(extra_output) in
  expected.(extra_output) <- { e with Ompgpu_api.output = e.Ompgpu_api.output ^ "x" };
  let e = expected.(extra_diagnostics) in
  expected.(extra_diagnostics) <-
    { e with Ompgpu_api.diagnostics = e.Ompgpu_api.diagnostics ^ "x" };
  let cold, warm =
    Replay.with_daemon ~domains:1 (fun socket_path ->
        let cold = Replay.pass ~connections:2 ~socket_path jobs in
        (cold, Replay.pass ~connections:2 ~socket_path jobs))
  in
  let tallies = List.map (Replay.tally ~expected) [ cold; warm ] in
  List.iter2
    (fun name (t : Replay.tally) ->
      check Alcotest.(list int) (name ^ ": mismatched jobs")
        [ extra_output; extra_diagnostics ] t.Replay.mismatched;
      checki (name ^ ": transport errors") 0 t.Replay.errors)
    [ "cold"; "warm" ] tallies;
  check Alcotest.bool "not byte-identical" false (Replay.identical jobs tallies)

(* Regression for the cache-aliasing bug the full-scale corpus caught:
   the daemon's warm cache served one request's file label to a later
   request for the same source under a different name (diagnostics embed
   the label, so the bytes differed from in-process compilation).  The
   file label now joins Ompgpu_api.cache_key. *)
let traffic_no_file_alias () =
  let config = { Ompgpu_api.Config.default with run_sim = true; emit_ir = false } in
  (* malformed on purpose: the structured error line embeds the file *)
  let src = "int main() { long x = ; }\n" in
  let a, b =
    Replay.with_daemon ~domains:1 (fun socket_path ->
        Service.Client.with_connection ~socket_path (fun c ->
            let compile file =
              match Service.Client.compile c ~file ~config src with
              | Ok r -> r
              | Error e ->
                Alcotest.failf "daemon compile %s: %s" file
                  (Fault.Ompgpu_error.to_string e)
            in
            let a = compile "alias-a.c" in
            (a, compile "alias-b.c")))
  in
  let expect file = Ompgpu_api.compile_buffered ~config ~file src in
  checks "alias-a.c keeps its own label"
    (expect "alias-a.c").Ompgpu_api.diagnostics a.Ompgpu_api.diagnostics;
  checks "alias-b.c keeps its own label"
    (expect "alias-b.c").Ompgpu_api.diagnostics b.Ompgpu_api.diagnostics

let suite =
  [
    Alcotest.test_case "splitmix: pinned reference draws" `Quick splitmix_golden;
    Alcotest.test_case "splitmix: stream discipline" `Quick splitmix_streams;
    Alcotest.test_case "generator: seed determinism" `Quick generator_deterministic;
    Alcotest.test_case "generator: pinned corpus prefix" `Quick generator_golden;
    Alcotest.test_case "generator: escape trip-count invariant" `Quick
      generator_escape_invariant;
    Alcotest.test_case "api: cache_key pinned across configs" `Quick cache_key_golden;
    Alcotest.test_case "matrix: smoke run has no unexplained divergence" `Quick
      matrix_smoke;
    Alcotest.test_case "matrix: cell names round-trip" `Quick
      matrix_cell_names_roundtrip;
    Alcotest.test_case "ledger: diff semantics" `Quick ledger_diff_unit;
    Alcotest.test_case "ledger: committed golden matches" `Slow ledger_golden;
    Alcotest.test_case "traffic: daemon corpus byte-identical" `Slow traffic_smoke;
    Alcotest.test_case "traffic: byte-identity verdict can fail" `Quick
      traffic_verdict_can_fail;
    Alcotest.test_case "traffic: no file-label aliasing in warm cache" `Quick
      traffic_no_file_alias;
  ]
