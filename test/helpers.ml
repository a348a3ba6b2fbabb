(* Shared test helpers: compile MiniOMP snippets, run them on the simulator,
   and compare observable traces across build configurations. *)

let compile ?(scheme = Frontend.Codegen.Simplified) src =
  Frontend.Codegen.compile ~scheme ~file:"test.c" src

let verify m =
  match Ir.Verify.check m with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "verifier rejected module: %s" msg

(* Verify after EVERY pipeline pass, not just at the end: the trace layer
   fires an event per executed pass, so a verifier failure is pinned to the
   offending pass and round instead of to "somewhere in the pipeline". *)
let optimize ?(pipeline = Openmpopt.Pass_manager.Pipeline.full) m =
  let trace =
    Observe.Trace.create
      ~on_event:(fun (e : Observe.Trace.event) ->
        match Ir.Verify.check m with
        | Ok () -> ()
        | Error msg ->
          Alcotest.failf "verifier rejected module after pass %s (round %d): %s"
            e.Observe.Trace.pass e.Observe.Trace.round msg)
      ()
  in
  let report = Openmpopt.Pass_manager.run_pipeline ~pipeline ~trace m in
  verify m;
  report

let simulate ?(machine = Gpusim.Machine.test_machine) m =
  let sim = Gpusim.Interp.create machine m in
  Gpusim.Interp.run_host sim;
  sim

(* Compile (+ optionally optimize) and return the sorted observable trace. *)
let run_trace ?(scheme = Frontend.Codegen.Simplified) ?pipeline src =
  let m = compile ~scheme src in
  verify m;
  Option.iter (fun pipeline -> ignore (optimize ~pipeline m)) pipeline;
  let sim = simulate m in
  Gpusim.Interp.trace_values sim
  |> List.map (fun v ->
         match v with
         | Gpusim.Rvalue.I x -> Printf.sprintf "i:%Ld" x
         | Gpusim.Rvalue.F x -> Printf.sprintf "f:%.9g" x
         | v -> Fmt.str "%a" Gpusim.Rvalue.pp v)
  |> List.sort String.compare

let trace_testable = Alcotest.(list string)

(* Assert that every configuration of a program observes the same trace. *)
let assert_same_trace ?(schemes = [ Frontend.Codegen.Simplified ]) ?(pipelines = []) src =
  let base = run_trace src in
  List.iter
    (fun scheme ->
      Alcotest.check trace_testable
        ("scheme " ^ Frontend.Codegen.scheme_name scheme)
        base (run_trace ~scheme src))
    schemes;
  List.iter
    (fun (label, pipeline) ->
      Alcotest.check trace_testable label base (run_trace ~pipeline src))
    pipelines

(* The full pipeline and one-optimization-off variants of it, the way the
   paper's openmp-opt-disable-* flags switch passes off. *)
let all_opt_variants =
  let spec = Harness.Config.spec in
  [
    ("full", Openmpopt.Pass_manager.Pipeline.full);
    ( "no-spmd",
      spec "internalize,fold,deglobalize,state-machine,fold-late,dedup,dead-regions,cleanup@3" );
    ("no-spmd,no-csm", spec "internalize,fold,deglobalize,fold-late,dedup,dead-regions,cleanup@3");
    ( "no-deglob",
      spec "internalize,fold,spmdize,state-machine,fold-late,dedup,dead-regions,cleanup@3" );
    ("no-fold", spec "internalize,deglobalize,spmdize,state-machine,cleanup@3");
    ( "no-group",
      spec
        "internalize,fold,deglobalize,spmdize,state-machine,fold-late,dedup,dead-regions,cleanup@3!nogroup"
    );
    ( "no-internalize",
      spec "fold,deglobalize,spmdize,state-machine,fold-late,dedup,dead-regions,cleanup@3" );
    ("h2s-only", spec "internalize,deglobalize,cleanup@3!noshared");
  ]

let variant name = List.assoc name all_opt_variants

(* Property tests honour two environment variables so that CI (and bug
   reproduction) can pin the run:
     FUZZ_ITERS  override the iteration count of every property
     FUZZ_SEED   fix the random seed (integer) *)
let qtest ?(count = 100) name gen prop =
  let count =
    match Option.bind (Sys.getenv_opt "FUZZ_ITERS") int_of_string_opt with
    | Some n when n > 0 -> n
    | _ -> count
  in
  let rand =
    Option.map
      (fun seed -> Random.State.make [| seed |])
      (Option.bind (Sys.getenv_opt "FUZZ_SEED") int_of_string_opt)
  in
  QCheck_alcotest.to_alcotest ?rand (QCheck.Test.make ~count ~name gen prop)
