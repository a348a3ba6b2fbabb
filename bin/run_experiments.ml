(* Regenerate every table and figure of the paper's evaluation section.

     dune exec bin/run_experiments.exe                 # everything, sequential
     dune exec bin/run_experiments.exe -- -j 4         # everything, 4 domains
     dune exec bin/run_experiments.exe -- fig9
     dune exec bin/run_experiments.exe -- fig11 xsbench --tiny

   Every figure collects its measurements through the Sched domain pool
   ([-j N], default 1) and a shared content-addressed result cache, so
   configurations that repeat across tables (e.g. dev0 appears in Figures
   9, 10 and 11) are compiled and simulated once.  Tables are rendered from
   ordered batch results: the output is byte-identical at every [-j].

   Flags come from Cli_common (the same [-j]/[--jobs]/[--tiny] every
   driver speaks); the tables come through the Ompgpu_api façade. *)

open Cmdliner
module A = Ompgpu_api

let run targets tiny jobs =
  let scale = if tiny then A.App.Tiny else A.App.Bench in
  let machine = Gpusim.Machine.bench_machine in
  Sched.Pool.with_pool ~domains:jobs @@ fun pool ->
  let cache : A.Runner.outcome Sched.Cache.t = Sched.Cache.create () in
  let fig9 () = A.Tables.fig9 ~machine ~scale ~pool ~cache () in
  let fig10 () = A.Tables.fig10 ~machine ~scale ~pool ~cache () in
  let fig11_all () = A.Tables.fig11_all ~machine ~scale ~pool ~cache () in
  let ablations () = A.Tables.ablations ~machine ~scale ~pool ~cache () in
  let all () =
    print_string (fig9 ());
    print_newline ();
    print_string (fig10 ());
    print_newline ();
    print_string (fig11_all ());
    print_newline ();
    print_string (ablations ())
  in
  match targets with
  | [] ->
    all ();
    0
  | [ "fig9" ] ->
    print_string (fig9 ());
    0
  | [ "fig10" ] ->
    print_string (fig10 ());
    0
  | [ "fig11" ] ->
    print_string (fig11_all ());
    0
  | [ "fig11"; name ] -> (
    match A.Apps.find name with
    | Some app ->
      print_string (A.Tables.fig11 ~machine ~scale ~pool ~cache app);
      0
    | None ->
      Fmt.epr "run_experiments: unknown app %s@." name;
      2)
  | [ "ablations" ] ->
    print_string (ablations ());
    0
  | _ ->
    Fmt.epr "usage: run_experiments [fig9|fig10|fig11 [app]|ablations] [--tiny] [-j N]@.";
    2

let targets_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"TARGET"
        ~doc:"What to regenerate: fig9, fig10, fig11 [APP], ablations; \
              everything when absent")

let cmd =
  let doc = "regenerate the paper's evaluation tables and figures" in
  Cmd.v
    (Cmd.info "run_experiments" ~doc)
    Term.(const run $ targets_arg $ Cli_common.tiny $ Cli_common.jobs)

let () = exit (Cmd.eval' cmd)
