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

(* ------------------------------------------------------------------ *)
(* Service tests: sockets, temp files, compiled-bytes comparison      *)
(* ------------------------------------------------------------------ *)

(* [f path] with [path] a socket in a fresh directory under the system
   temp dir, removed with everything in it afterwards.  Unix-socket paths
   are length-limited (~108 bytes): keep them short, never under _build.
   Every test directory comes from [Replay.with_temp_dir] likewise, so a
   test run leaves nothing in $TMPDIR. *)
let with_socket f =
  Replay.with_temp_dir "mompd-t" (fun dir -> f (Filename.concat dir "mompd.sock"))

let write_file path contents =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc contents)

let contains s frag =
  let ls = String.length s and lf = String.length frag in
  let rec go i = i + lf <= ls && (String.sub s i lf = frag || go (i + 1)) in
  go 0

let ok_exn = function
  | Ok v -> v
  | Error e ->
    Alcotest.failf "unexpected service error: %s" (Fault.Ompgpu_error.to_string e)

(* Zero every [time_us] member: pass events carry wall times, the only
   nondeterministic bytes in a stats payload. *)
let rec zero_times = function
  | Observe.Json.Obj ms ->
    Observe.Json.Obj
      (List.map
         (fun (k, v) ->
           if String.equal k "time_us" then (k, Observe.Json.Int 0)
           else (k, zero_times v))
         ms)
  | Observe.Json.List xs -> Observe.Json.List (List.map zero_times xs)
  | j -> j

let check_same_compiled what (expected : Ompgpu_api.compiled)
    (got : Ompgpu_api.compiled) =
  Alcotest.(check int) (what ^ ": exit code") expected.exit_code got.exit_code;
  Alcotest.(check string) (what ^ ": stdout bytes") expected.output got.output;
  Alcotest.(check string)
    (what ^ ": stderr bytes")
    expected.diagnostics got.diagnostics;
  let stats (r : Ompgpu_api.compiled) =
    Option.map (fun s -> Observe.Json.to_string (zero_times s)) r.stats
  in
  Alcotest.(check (option string))
    (what ^ ": stats payload (time_s zeroed)")
    (stats expected) (stats got)

let tiers_int stats k =
  Option.bind (Observe.Json.member "tiers" stats) (fun t ->
      Option.bind (Observe.Json.member k t) Observe.Json.to_int)

let rec wait_for_upgrades c ~target deadline =
  let stats = ok_exn (Service.Client.stats c ()) in
  match tiers_int stats "upgrades_done" with
  | Some n when n >= target -> stats
  | _ ->
    if Unix.gettimeofday () > deadline then
      Alcotest.fail "tier upgrade did not land within the deadline"
    else begin
      Thread.delay 0.02;
      wait_for_upgrades c ~target deadline
    end
