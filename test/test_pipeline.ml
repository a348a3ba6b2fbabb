(* The pipeline surface, the only way to choose passes.

   Three things are pinned here: the spec grammar round-trips (property
   test over arbitrary pipelines), bad specs fail with the offending
   token named, and the named builds — Figure 11 subsets, ablation rows,
   the test suite's pass variants — keep their exact pass sequences. *)

module P = Openmpopt.Pass_manager.Pipeline
module A = Ompgpu_api

let tiny = Proxyapps.App.Tiny
let app_source name = (Proxyapps.Apps.find_exn name).Proxyapps.App.omp_source tiny

(* ------------------------------------------------------------------ *)
(* Spec grammar: round-trip property                                   *)
(* ------------------------------------------------------------------ *)

let gen_pipeline =
  QCheck.Gen.(
    let* name =
      oneof
        [
          return "fast";
          return "full";
          return "custom";
          map
            (fun cs -> String.concat "" (List.map (String.make 1) cs))
            (list_size (int_range 1 12)
               (oneofl
                  [ 'a'; 'b'; 'z'; 'A'; 'Z'; '0'; '9'; '_'; '-' ]));
        ]
    in
    (* non-empty pass list, duplicates allowed (a pass may legitimately
       run twice per round), order free *)
    let* passes = list_size (int_range 1 12) (oneofl P.all_passes) in
    let* rounds = int_range 1 P.max_rounds in
    let* grouping = bool in
    let* heap_to_shared = bool in
    return { P.name; passes; rounds; grouping; heap_to_shared })

let arb_pipeline =
  QCheck.make gen_pipeline ~print:P.to_string

let test_spec_roundtrip =
  Helpers.qtest ~count:500 "pipeline spec round-trips" arb_pipeline (fun p ->
      match P.of_string (P.to_string p) with
      | Error msg ->
        QCheck.Test.fail_reportf "own spec rejected: %s (spec %S)" msg
          (P.to_string p)
      | Ok p' ->
        if not (P.equal p p') then
          QCheck.Test.fail_reportf "round-trip changed the pipeline: %S -> %S"
            (P.to_string p) (P.to_string p');
        (* the fingerprint is the semantic identity: it must survive too *)
        String.equal (P.fingerprint p) (P.fingerprint p'))

let test_builtins () =
  Alcotest.(check bool)
    "bare name resolves the fast builtin" true
    (P.of_string "fast" = Ok P.fast);
  Alcotest.(check bool)
    "bare name resolves the full builtin" true
    (P.of_string " full " = Ok P.full);
  Alcotest.(check string)
    "fast spec golden" "fast=internalize,fold,cleanup@1" (P.to_string P.fast);
  (* the builtin names stay attached through a spec round-trip *)
  (match P.of_string (P.to_string P.full) with
  | Ok p -> Alcotest.(check string) "full keeps its name" "full" p.P.name
  | Error e -> Alcotest.failf "full spec rejected: %s" e);
  (* a nameless spec parses as "custom" *)
  match P.of_string "internalize,cleanup@2!nogroup" with
  | Ok p ->
    Alcotest.(check string) "anonymous specs are \"custom\"" "custom" p.P.name;
    Alcotest.(check int) "rounds parsed" 2 p.P.rounds;
    Alcotest.(check bool) "!nogroup parsed" false p.P.grouping;
    Alcotest.(check bool) "!noshared untouched" true p.P.heap_to_shared
  | Error e -> Alcotest.failf "anonymous spec rejected: %s" e

let test_bad_specs () =
  let expect_error what spec fragment =
    match P.of_string spec with
    | Ok p -> Alcotest.failf "%s: accepted as %S" what (P.to_string p)
    | Error msg ->
      let contains s frag =
        let ls = String.length s and lf = String.length frag in
        let rec go i = i + lf <= ls && (String.sub s i lf = frag || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: message %S mentions %S" what msg fragment)
        true (contains msg fragment)
  in
  expect_error "unknown pass" "internalize,warp-speed@2" "warp-speed";
  expect_error "unknown pass lists the known ones" "warp-speed" "internalize";
  expect_error "empty body" "tier=" "empty pipeline";
  expect_error "zero rounds" "fold@0" "out of range";
  expect_error "rounds beyond the cap" "fold@99" "out of range";
  expect_error "garbage rounds" "fold@many" "invalid pipeline round";
  expect_error "unknown flag" "fold@1!turbo" "!turbo";
  expect_error "invalid name" "no spaces=fold@1" "invalid pipeline name"

(* ------------------------------------------------------------------ *)
(* Named builds: pinned pass sequences                                 *)
(* ------------------------------------------------------------------ *)

(* Each named build's canonical spec.  These strings were recorded from
   the boolean-toggle surface the builds were first written in, so they
   also pin that every build kept its pass sequence (and its cache key)
   when the toggles were deleted. *)
let full_spec =
  "full=internalize,fold,deglobalize,spmdize,state-machine,fold-late,dedup,dead-regions,cleanup@3"

let migrated_goldens =
  [
    ("fig11 heap-2-stack", "custom=internalize,deglobalize,cleanup@3!noshared");
    ("fig11 h2s2", "custom=internalize,deglobalize,cleanup@3");
    ( "fig11 h2s2 + RTCspec",
      "custom=internalize,fold,deglobalize,fold-late,dedup,dead-regions,cleanup@3" );
    ( "fig11 h2s2 + RTCspec + CSM",
      "custom=internalize,fold,deglobalize,state-machine,fold-late,dedup,dead-regions,cleanup@3"
    );
    ( "fig11 h2s2 + RTCspec + SPMDzation",
      "custom=internalize,fold,deglobalize,spmdize,fold-late,dedup,dead-regions,cleanup@3" );
    ("fig11 LLVM Dev 0", full_spec);
    ("ablation full pipeline", full_spec);
    ( "ablation no guard grouping (Fig. 7 off)",
      "custom=internalize,fold,deglobalize,spmdize,state-machine,fold-late,dedup,dead-regions,cleanup@3!nogroup"
    );
    ( "ablation no internalization",
      "custom=fold,deglobalize,spmdize,state-machine,fold-late,dedup,dead-regions,cleanup@3" );
    ( "ablation no heap-to-shared",
      "custom=internalize,fold,deglobalize,spmdize,state-machine,fold-late,dedup,dead-regions,cleanup@3!noshared"
    );
    ("variant full", full_spec);
    ( "variant no-spmd",
      "custom=internalize,fold,deglobalize,state-machine,fold-late,dedup,dead-regions,cleanup@3"
    );
    ( "variant no-spmd,no-csm",
      "custom=internalize,fold,deglobalize,fold-late,dedup,dead-regions,cleanup@3" );
    ( "variant no-deglob",
      "custom=internalize,fold,spmdize,state-machine,fold-late,dedup,dead-regions,cleanup@3" );
    ("variant no-fold", "custom=internalize,deglobalize,spmdize,state-machine,cleanup@3");
    ( "variant no-group",
      "custom=internalize,fold,deglobalize,spmdize,state-machine,fold-late,dedup,dead-regions,cleanup@3!nogroup"
    );
    ( "variant no-internalize",
      "custom=fold,deglobalize,spmdize,state-machine,fold-late,dedup,dead-regions,cleanup@3" );
    ("variant h2s-only", "custom=internalize,deglobalize,cleanup@3!noshared");
  ]

let test_migrated_goldens () =
  let module C = Harness.Config in
  let builds =
    [
      ("fig11 heap-2-stack", C.heap_2_stack);
      ("fig11 h2s2", C.h2s2_cfg);
      ("fig11 h2s2 + RTCspec", C.h2s2_rtc_cfg);
      ("fig11 h2s2 + RTCspec + CSM", C.h2s2_rtc_csm_cfg);
      ("fig11 h2s2 + RTCspec + SPMDzation", C.h2s2_rtc_spmd_cfg);
      ("fig11 LLVM Dev 0", C.dev0);
    ]
    |> List.map (fun (label, (c : C.t)) ->
           match c.C.build with
           | C.Dev p -> (label, p)
           | _ -> Alcotest.failf "%s: not a Dev build" label)
  in
  let builds =
    builds
    @ List.map (fun (l, p) -> ("ablation " ^ l, p)) Harness.Tables.ablation_configs
    @ List.map (fun (l, p) -> ("variant " ^ l, p)) Helpers.all_opt_variants
  in
  Alcotest.(check int) "every golden covered" (List.length migrated_goldens) (List.length builds);
  List.iter
    (fun (label, p) ->
      Alcotest.(check string) label (List.assoc label migrated_goldens) (P.to_string p))
    builds

let test_fast_pipeline_differs () =
  (* the fast tier must be a real tier: cheaper identity, distinct cache
     key, and still a successful compile *)
  let file = "x.momp" in
  let source = app_source "su3bench" in
  let full = A.Config.(default |> with_pipeline A.Pipeline.full) in
  let fast = A.Config.(default |> with_pipeline A.Pipeline.fast) in
  Alcotest.(check bool)
    "fast and full have distinct cache keys" false
    (String.equal
       (A.cache_key ~file ~config:full ~source)
       (A.cache_key ~file ~config:fast ~source));
  let r = A.compile_buffered ~config:fast ~file source in
  Alcotest.(check int) "fast tier compiles cleanly" 0 r.A.exit_code

let suite =
  [
    test_spec_roundtrip;
    Alcotest.test_case "builtins" `Quick test_builtins;
    Alcotest.test_case "bad-specs" `Quick test_bad_specs;
    Alcotest.test_case "fast-is-a-distinct-tier" `Quick
      test_fast_pipeline_differs;
    Alcotest.test_case "migrated-build-goldens" `Quick test_migrated_goldens;
  ]
