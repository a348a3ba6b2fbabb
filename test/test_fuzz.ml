(* Differential fuzzing: random small MiniOMP kernels must observe the
   same trace under every globalization scheme and optimization
   configuration.  Integer accumulators keep results exact, so scheduling
   differences cannot hide behind floating-point rounding.

   The program grammar lives in [Corpus.Gen] — the same seeded generator
   the mass-conformance corpus (tools/conformance.exe) runs at scale —
   so a fuzz counterexample is reproducible from a corpus seed and vice
   versa.  QCheck supplies the seed and the shrinking loop; the shrink
   candidates themselves come from [Corpus.Gen.shrink].

   Divergences the conformance ledger documents as *known* classes
   (docs/CONFORMANCE.md) — e.g. the legacy SPMD fast path reading
   thread-private storage through a Figure-3 escape — are skipped here
   via [Corpus.Matrix.classify], exactly as the matrix runner accounts
   them. *)

type tcase = { prog : Corpus.Gen.prog; mode : Corpus.Gen.mode }

let render c = Corpus.Gen.render ~mode:c.mode c.prog

let gen_case =
  QCheck.Gen.(
    map2
      (fun seed spmd ->
        {
          prog = Corpus.Gen.generate (Corpus.Splitmix.of_int seed);
          mode = (if spmd then Corpus.Gen.Spmd else Corpus.Gen.Generic);
        })
      (int_bound 0x3FFFFFFF) bool)

let shrink_case c yield =
  Corpus.Gen.shrink c.prog (fun prog -> yield { c with prog })

let arb_case = QCheck.make gen_case ~print:render ~shrink:shrink_case

(* ------------------------------------------------------------------ *)
(* The differential property                                           *)
(* ------------------------------------------------------------------ *)

let configurations =
  None
  :: List.map
       (fun v -> Some (Helpers.variant v))
       [ "full"; "no-spmd"; "no-spmd,no-csm"; "no-deglob"; "no-group" ]

(* a scheme whose divergence in this cell the ledger documents as a known
   unsoundness of the modeled era is exempt from the property *)
let known_divergence scheme c =
  Corpus.Matrix.classify
    { Corpus.Matrix.scheme; mode = c.mode; pipeline = Corpus.Matrix.O0 }
    c.prog
  <> None

let prop_differential c =
  let src = render c in
  let reference = Helpers.run_trace src in
  List.for_all
    (fun scheme ->
      known_divergence scheme c
      || List.for_all
           (fun pipeline ->
             let got = Helpers.run_trace ~scheme ?pipeline src in
             if got <> reference then
               QCheck.Test.fail_reportf
                 "trace mismatch (scheme %s, mode %s, %s):@.got      %s@.expected \
                  %s@.program:@.%s"
                 (Frontend.Codegen.scheme_name scheme)
                 (Corpus.Gen.mode_name c.mode)
                 (match pipeline with None -> "no-opt" | Some _ -> "optimized")
                 (String.concat " " got) (String.concat " " reference) src
             else true)
           configurations)
    [ Frontend.Codegen.Simplified; Frontend.Codegen.Legacy ]

(* running the pipeline on an already-optimized module finds nothing new *)
let prop_idempotent c =
  let src = render c in
  let m = Helpers.compile src in
  ignore (Openmpopt.Pass_manager.run_pipeline m);
  let second = Openmpopt.Pass_manager.run_pipeline m in
  let open Openmpopt.Pass_manager in
  if
    second.heap_to_stack <> 0 || second.heap_to_shared <> 0 || second.spmdized <> 0
    || second.custom_state_machines <> 0
  then
    QCheck.Test.fail_reportf
      "second pipeline run still transformed (h2s=%d h2shared=%d spmd=%d csm=%d):@.%s"
      second.heap_to_stack second.heap_to_shared second.spmdized
      second.custom_state_machines src
  else
    match Ir.Verify.check m with
    | Result.Ok () -> true
    | Result.Error msg ->
      QCheck.Test.fail_reportf "verifier rejected twice-optimized module: %s@.%s" msg
        src

(* ------------------------------------------------------------------ *)
(* Robustness: malformed input never escapes as a raw exception        *)
(* ------------------------------------------------------------------ *)

(* Truncate a valid program at an arbitrary byte, or splat one byte with
   punctuation the grammar rejects.  Whatever comes out, the front end must
   either compile it or fail with a *located* structured error — a raw
   [Failure]/[Invalid_argument]/assert escaping the lexer, parser or codegen
   classifies as [Internal] and fails the property. *)
let mangle (c, n, mutate) =
  let src = render c in
  let len = String.length src in
  if mutate then begin
    let b = Bytes.of_string src in
    Bytes.set b (n mod len) (List.nth [ '$'; '@'; '~'; '#'; '('; '}' ] (n mod 6));
    Bytes.to_string b
  end
  else String.sub src 0 (n mod len)

let arb_mangled =
  QCheck.make
    QCheck.Gen.(triple gen_case (int_bound 4096) bool)
    ~print:(fun arg -> mangle arg)

let prop_malformed_is_structured arg =
  let src = mangle arg in
  let open Fault.Ompgpu_error in
  match
    Harness.Errors.run_protected ~phase:Lowering (fun () ->
        let m =
          Frontend.Codegen.compile ~scheme:Frontend.Codegen.Simplified
            ~file:"mangled.c" src
        in
        match Ir.Verify.check m with
        | Result.Ok () -> ()
        | Result.Error msg -> raise_error Verify ~phase:Verifying "%s" msg)
  with
  | Result.Ok () -> true
  | Result.Error e -> (
    match e.kind with
    | Verify -> true
    | Lex | Parse | Codegen ->
      if e.loc = None then
        QCheck.Test.fail_reportf "compile error lost its location: %s@.%s"
          (to_string e) src
      else true
    | k ->
      QCheck.Test.fail_reportf
        "raw exception escaped the front end (classified %s): %s@.%s"
        (kind_name k) (to_string e) src)

(* CI exit-path canary: FUZZ_FORCE_FAIL=1 injects a property that always
   fails, so the shrinker reduces a counterexample and the run must exit
   nonzero.  tools/check_fuzz_exit.sh asserts that this exit code survives
   the `dune exec ... -- test fuzz` invocation `make ci` uses; a gate whose
   failing fuzz run exits 0 is not a gate. *)
let forced_fail =
  Helpers.qtest ~count:5 "forced failure (FUZZ_FORCE_FAIL canary)" arb_case
    (fun c ->
      ignore (render c);
      QCheck.Test.fail_reportf "FUZZ_FORCE_FAIL canary: intentional failure")

let suite =
  let base =
    [
      Helpers.qtest ~count:40 "random kernels: all schemes and configs agree" arb_case
        prop_differential;
      Helpers.qtest ~count:30 "optimizer pipeline is idempotent" arb_case
        prop_idempotent;
      Helpers.qtest ~count:150 "malformed source yields located structured errors"
        arb_mangled prop_malformed_is_structured;
    ]
  in
  if Sys.getenv_opt "FUZZ_FORCE_FAIL" = Some "1" then base @ [ forced_fail ]
  else base
