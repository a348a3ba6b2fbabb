(* The simulator's full output, pinned.  The corpus ledger compares only
   each cell's exit code and trace line, and bench-gate tolerates +20% on
   the cost-model counters, so neither notices a simulator change that
   moves one counter of one launch.  This golden does: for every run it
   records a digest of everything the simulator reports — every launch's
   counters ([Stats.json_of_launch], oldest launch first), the trace
   values, the cross-thread local accesses and the fuel left — or, for a
   run that fails, its one-line taxonomy rendering (barrier-divergence
   deadlocks name a "func/block" site).

   The runs: the conformance corpus (seed 42, 48 programs) under all 12
   matrix cells, then every Figure 10, Figure 11 and ablation build of the
   four proxy apps at tiny scale.  One line per run: a 12-hex digest of its
   rendering, then its name.  On a mismatch the test prints the full
   rendering of every run that differs.

   Regenerate (from the repository root, which rewrites
   test/gpusim_ledger.expected) with:
     GOLDEN_PRINT=1 dune exec test/test_main.exe -- test gpusim-ledger *)

module E = Fault.Ompgpu_error
module Config = Harness.Config

let machine = Gpusim.Machine.bench_machine

let render_sim (sim : Gpusim.Interp.t) =
  let b = Buffer.create 1024 in
  List.iter
    (fun s ->
      Buffer.add_string b
        (Observe.Json.to_string ~minify:true (Gpusim.Stats.json_of_launch s));
      Buffer.add_char b '\n')
    (List.rev sim.Gpusim.Interp.kernel_stats);
  Buffer.add_string b
    (Fmt.str "trace:%a\n"
       (Fmt.list ~sep:Fmt.sp Gpusim.Rvalue.pp)
       (Gpusim.Interp.trace_values sim));
  Printf.bprintf b "cross_local_accesses:%d\nfuel:%d\n"
    sim.Gpusim.Interp.mem.Gpusim.Mem.cross_local_accesses sim.Gpusim.Interp.fuel;
  Buffer.contents b

(* Compile (and optimize) outside the pinned region: a front-end or
   optimizer failure is not a simulator result and fails the test. *)
let render ~scheme ~file ?pipeline src =
  let m = Frontend.Codegen.compile ~scheme ~file src in
  Option.iter
    (fun pipeline -> ignore (Openmpopt.Pass_manager.run_pipeline ~pipeline m))
    pipeline;
  let sim = Gpusim.Interp.create machine m in
  match Gpusim.Interp.run_host sim with
  | () -> render_sim sim
  | exception e ->
    let err =
      Harness.Errors.classify ~phase:E.Simulating e (Printexc.get_raw_backtrace ())
    in
    "error: " ^ E.to_string err ^ "\n"

let corpus_runs () =
  List.concat
    (List.init 48 (fun i ->
         let prog = Corpus.Gen.generate (Corpus.Gen.program_stream ~root:42L i) in
         List.map
           (fun (cell : Corpus.Matrix.cell) ->
             let config = Corpus.Matrix.config_of_cell cell in
             ( Printf.sprintf "corpus/%02d/%s" i (Corpus.Matrix.cell_name cell),
               fun () ->
                 render ~scheme:cell.Corpus.Matrix.scheme ~file:"corpus.c"
                   ?pipeline:config.Ompgpu_api.Config.pipeline
                   (Corpus.Gen.render ~mode:cell.Corpus.Matrix.mode prog) ))
           Corpus.Matrix.cells))

let app_run (app : Proxyapps.App.t) build =
  let omp = app.Proxyapps.App.omp_source Proxyapps.App.Tiny in
  let file = app.Proxyapps.App.name ^ ".c" in
  match build with
  | Config.Llvm12 -> render ~scheme:Frontend.Codegen.Legacy ~file omp
  | Config.Dev_noopt -> render ~scheme:Frontend.Codegen.Simplified ~file omp
  | Config.Dev pipeline -> render ~scheme:Frontend.Codegen.Simplified ~file ~pipeline omp
  | Config.Cuda ->
    render ~scheme:Frontend.Codegen.Cuda ~file
      (app.Proxyapps.App.cuda_source Proxyapps.App.Tiny)

let app_runs () =
  let builds figure configs =
    List.concat_map
      (fun (app : Proxyapps.App.t) ->
        List.map
          (fun (label, build) ->
            ( Printf.sprintf "%s/%s/%s" figure app.Proxyapps.App.name label,
              fun () -> app_run app build ))
          (configs app.Proxyapps.App.name))
      Proxyapps.Apps.all
  in
  let of_configs configs name =
    List.map (fun (c : Config.t) -> (c.Config.label, c.Config.build)) (configs name)
  in
  builds "fig10" (of_configs Config.fig10_configs)
  @ builds "fig11" (of_configs Config.fig11_configs)
  @ builds "ablation" (fun _ ->
        List.map (fun (label, p) -> (label, Config.Dev p)) Harness.Tables.ablation_configs)

let digest rendering = String.sub (Digest.to_hex (Digest.string rendering)) 0 12

let header =
  "# gpusim ledger: <12-hex digest of the full rendering> <run>; see \
   test/test_gpusim_ledger.ml\n"

(* The "<digest> <run>" lines, as (run, digest) pairs. *)
let parse text =
  List.filter_map
    (fun line ->
      match String.index_opt line ' ' with
      | Some i when line.[0] <> '#' ->
        Some (String.sub line (i + 1) (String.length line - i - 1), String.sub line 0 i)
      | _ -> None)
    (String.split_on_char '\n' text)

let ledger_golden () =
  let runs =
    List.map (fun (name, run) -> (name, run ())) (corpus_runs () @ app_runs ())
  in
  let actual =
    header
    ^ String.concat ""
        (List.map (fun (name, r) -> Printf.sprintf "%s %s\n" (digest r) name) runs)
  in
  (* dune runtest runs in test/; dune exec test/test_main.exe runs in the
     project root *)
  let path =
    if Sys.file_exists "gpusim_ledger.expected" then "gpusim_ledger.expected"
    else "test/gpusim_ledger.expected"
  in
  if Sys.getenv_opt "GOLDEN_PRINT" <> None then begin
    if Sys.file_exists "test/dune" then
      Out_channel.with_open_bin path (fun oc -> output_string oc actual)
    else prerr_string actual;
    Printf.eprintf "gpusim ledger: %d runs written\n" (List.length runs)
  end;
  let expected = parse (In_channel.with_open_bin path In_channel.input_all) in
  let got = parse actual in
  let differing = List.filter (fun (name, d) -> List.assoc_opt name expected <> Some d) got in
  let missing = List.filter (fun (name, _) -> not (List.mem_assoc name got)) expected in
  List.iter
    (fun (name, _) ->
      Printf.eprintf "--- %s (expected %s)\n%s" name
        (Option.value (List.assoc_opt name expected) ~default:"<absent>")
        (List.assoc name runs))
    differing;
  List.iter (fun (name, _) -> Printf.eprintf "--- %s: no longer run\n" name) missing;
  Alcotest.(check int) "runs" 629 (List.length runs);
  if differing <> [] || missing <> [] then
    Alcotest.failf
      "%s: %d run(s) differ and %d no longer run (renderings above); regenerate \
       with GOLDEN_PRINT=1 dune exec test/test_main.exe -- test gpusim-ledger"
      path (List.length differing) (List.length missing)

let suite =
  [ Alcotest.test_case "committed golden matches" `Quick ledger_golden ]
