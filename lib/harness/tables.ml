(* Renderers for the evaluation tables and figures.  Each produces the rows
   the paper reports; EXPERIMENTS.md records paper-vs-measured.

   Rendering is two-phase: collect every measurement through
   [Runner.run_batch] (parallel when a [pool] is given), then print from the
   ordered results into a buffer local to the call.  The buffer used to be a
   module-level global, which silently corrupted output when two tables were
   rendered from different domains; collection order is the only thing that
   parallelism may change, and batches preserve input order, so a table is
   byte-identical at any [-j]. *)

(* A per-call line printer over a private buffer.  The polymorphic record
   field keeps [line] usable at every format type inside the callback
   (a plain lambda parameter would be monomorphic). *)
type liner = { line : 'a. ('a, Format.formatter, unit, unit) format4 -> 'a }

let with_lines f =
  let bf = Buffer.create 4096 in
  let line fmt = Fmt.kstr (fun s -> Buffer.add_string bf (s ^ "\n")) fmt in
  f { line };
  Buffer.contents bf

(* ------------------------------------------------------------------ *)
(* Figure 9: optimization opportunities and remarks per kernel          *)
(* ------------------------------------------------------------------ *)

let fig9 ?machine ?scale ?pool ?cache () =
  with_lines @@ fun { line } ->
  line "Figure 9: optimization opportunities and remarks (full pipeline)";
  line "%-10s | %-17s | %-17s | %-13s | %s" "app" "h2s / h2shared" "CSM / SPMDzation"
    "RTOpt EM / PL" "Remarks";
  line "%s" (String.make 78 '-');
  let measurements =
    Runner.run_batch ?machine ?scale ?pool ?cache
      (List.map (fun app -> (app, Config.dev0)) Proxyapps.Apps.all)
  in
  List.iter
    (fun (m : Runner.measurement) ->
      match m.Runner.outcome with
      | Runner.Ok { report = Some r; _ } ->
        let spmd = r.Openmpopt.Pass_manager.spmdized > 0 in
        let csm = r.Openmpopt.Pass_manager.custom_state_machines in
        let csm_str =
          if spmd then Printf.sprintf "(%d) / %d" (max 1 csm) 1
          else if csm > 0 then Printf.sprintf "%d / 0" csm
          else "n/a"
        in
        let remarks =
          List.length
            (List.filter
               (fun (rm : Openmpopt.Remark.t) -> rm.Openmpopt.Remark.kind = Openmpopt.Remark.Passed)
               r.Openmpopt.Pass_manager.remarks)
        in
        line "%-10s | %6d / %-8d | %-17s | %5d / %-5d | %d" m.Runner.app
          r.Openmpopt.Pass_manager.heap_to_stack r.Openmpopt.Pass_manager.heap_to_shared
          csm_str r.Openmpopt.Pass_manager.folds_exec_mode
          r.Openmpopt.Pass_manager.folds_parallel_level remarks
      | Runner.Ok { report = None; _ } -> line "%-10s | (no report)" m.Runner.app
      | Runner.Err { kind = Fault.Ompgpu_error.Oom; message; _ } ->
        line "%-10s | OOM: %s" m.Runner.app message
      | Runner.Err e -> line "%-10s | ERROR: %s" m.Runner.app (Fault.Ompgpu_error.to_string e))
    measurements

(* ------------------------------------------------------------------ *)
(* Figure 10: kernel time, shared memory, registers per build           *)
(* ------------------------------------------------------------------ *)

let fig10 ?machine ?scale ?pool ?cache () =
  (* one flat batch over every (app, config) cell, then render per app *)
  let jobs =
    List.concat_map
      (fun app ->
        List.map
          (fun config -> (app, config))
          (Config.fig10_configs app.Proxyapps.App.name))
      Proxyapps.Apps.all
  in
  let results = Runner.run_batch ?machine ?scale ?pool ?cache jobs in
  let by_app =
    List.map2 (fun (app, _) m -> (app.Proxyapps.App.name, m)) jobs results
  in
  with_lines @@ fun { line } ->
  line "Figure 10: kernel cycles, shared memory and register usage";
  line "%-10s %-28s %12s %10s %7s" "app" "build" "cycles" "SMem(KB)" "#Regs";
  line "%s" (String.make 72 '-');
  List.iter
    (fun app ->
      List.iter
        (fun (name, (m : Runner.measurement)) ->
          if String.equal name app.Proxyapps.App.name then
            match m.Runner.outcome with
            | Runner.Ok x ->
              line "%-10s %-28s %12d %10.2f %7d" m.Runner.app
                m.Runner.config.Config.label x.Runner.cycles
                (float_of_int x.Runner.smem_bytes /. 1024.0)
                x.Runner.registers
            | Runner.Err { kind = Fault.Ompgpu_error.Oom; _ } ->
              line "%-10s %-28s %12s" m.Runner.app m.Runner.config.Config.label "OOM"
            | Runner.Err e ->
              line "%-10s %-28s ERROR: %s" m.Runner.app m.Runner.config.Config.label
                (Fault.Ompgpu_error.to_string e))
        by_app;
      line "%s" "")
    Proxyapps.Apps.all

(* ------------------------------------------------------------------ *)
(* Figure 11: per-app relative performance                              *)
(* ------------------------------------------------------------------ *)

let check_consistency (measurements : Runner.measurement list) =
  (* all successful configs must agree on the application checksum *)
  let sums =
    List.filter_map
      (fun m ->
        match m.Runner.outcome with
        | Runner.Ok { checksum = Some c; _ } -> Some (m.Runner.config.Config.label, c)
        | _ -> None)
      measurements
  in
  match sums with
  | [] -> []
  | (_, ref_sum) :: _ ->
    List.filter_map
      (fun (label, c) ->
        if Float.abs (c -. ref_sum) > 1e-6 *. (1.0 +. Float.abs ref_sum) then
          Some (Printf.sprintf "MISMATCH %s: %.9g vs %.9g" label c ref_sum)
        else None)
      sums

let fig11 ?machine ?scale ?pool ?cache (app : Proxyapps.App.t) =
  let configs = Config.fig11_configs app.Proxyapps.App.name in
  let measurements = Runner.run_configs ?machine ?scale ?pool ?cache app configs in
  let baseline =
    List.find
      (fun m -> m.Runner.config.Config.label = "LLVM 12")
      measurements
  in
  with_lines @@ fun { line } ->
  line "Figure 11 (%s): GPU kernel performance relative to LLVM 12" app.Proxyapps.App.name;
  List.iter
    (fun m ->
      match m.Runner.outcome with
      | Runner.Ok _ -> (
        match Runner.relative ~baseline m with
        | Some r -> line "  %-32s %6.2fx" m.Runner.config.Config.label r
        | None -> line "  %-32s %6s" m.Runner.config.Config.label "n/a")
      | Runner.Err { kind = Fault.Ompgpu_error.Oom; _ } ->
        line "  %-32s %6s" m.Runner.config.Config.label "OOM"
      | Runner.Err e ->
        line "  %-32s ERROR: %s" m.Runner.config.Config.label
          (Fault.Ompgpu_error.to_string e))
    measurements;
  List.iter (fun msg -> line "  %s" msg) (check_consistency measurements)

let fig11_all ?machine ?scale ?pool ?cache () =
  String.concat "\n"
    (List.map (fun app -> fig11 ?machine ?scale ?pool ?cache app) Proxyapps.Apps.all)

(* ------------------------------------------------------------------ *)
(* Per-pass pipeline breakdown (Observe trace, dev0 build)              *)
(* ------------------------------------------------------------------ *)

let pass_breakdown ?machine ?scale (app : Proxyapps.App.t) =
  with_lines @@ fun { line } ->
  line "Pass breakdown (%s, %s): per-round pipeline effects" app.Proxyapps.App.name
    Config.dev0.Config.label;
  line "%-3s %-14s %10s %8s %8s %7s  %s" "rnd" "pass" "time(us)" "Δinstrs" "Δblocks"
    "Δallocs" "counters";
  line "%s" (String.make 76 '-');
  let m = Runner.run ?machine ?scale ~with_trace:true app Config.dev0 in
  match m.Runner.outcome with
  | Runner.Ok { trace = Some tr; _ } ->
    List.iter
      (fun (e : Observe.Trace.event) ->
        let counters =
          String.concat ", "
            (List.map (fun (k, v) -> Printf.sprintf "%s=%+d" k v) e.counters)
        in
        line "%-3d %-14s %10.1f %+8d %+8d %+7d  %s" e.round e.pass (e.time_s *. 1e6)
          e.delta.Observe.Trace.instrs e.delta.Observe.Trace.blocks
          e.delta.Observe.Trace.allocs counters)
      (Observe.Trace.events tr)
  | Runner.Ok { trace = None; _ } -> line "  (no trace)"
  | Runner.Err { kind = Fault.Ompgpu_error.Oom; message; _ } -> line "  OOM: %s" message
  | Runner.Err e -> line "  ERROR: %s" (Fault.Ompgpu_error.to_string e)

let pass_breakdown_all ?machine ?scale () =
  String.concat "\n"
    (List.map (fun app -> pass_breakdown ?machine ?scale app) Proxyapps.Apps.all)

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md): guard grouping and internalization            *)
(* ------------------------------------------------------------------ *)

let ablation_configs =
  [
    ("full pipeline", Config.dev_full);
    ( "no guard grouping (Fig. 7 off)",
      Config.spec
        "internalize,fold,deglobalize,spmdize,state-machine,fold-late,dedup,dead-regions,cleanup@3!nogroup"
    );
    ( "no internalization",
      Config.spec "fold,deglobalize,spmdize,state-machine,fold-late,dedup,dead-regions,cleanup@3"
    );
    ( "no heap-to-shared",
      Config.spec
        "internalize,fold,deglobalize,spmdize,state-machine,fold-late,dedup,dead-regions,cleanup@3!noshared"
    );
  ]

let ablations ?machine ?scale ?pool ?cache () =
  let jobs =
    List.concat_map
      (fun app ->
        List.map
          (fun (label, pipeline) ->
            (app, { Config.label; build = Config.Dev pipeline; inject = [] }))
          ablation_configs)
      Proxyapps.Apps.all
  in
  let results = Runner.run_batch ?machine ?scale ?pool ?cache jobs in
  let by_app =
    List.map2 (fun (app, _) m -> (app.Proxyapps.App.name, m)) jobs results
  in
  with_lines @@ fun { line } ->
  line "Ablations: cycles / barriers / guarded regions under pass variants";
  line "%-10s %-34s %12s %9s %7s" "app" "variant" "cycles" "barriers" "guards";
  line "%s" (String.make 78 '-');
  List.iter
    (fun app ->
      List.iter
        (fun (name, (m : Runner.measurement)) ->
          if String.equal name app.Proxyapps.App.name then
            let label = m.Runner.config.Config.label in
            match m.Runner.outcome with
            | Runner.Ok x ->
              let guards =
                match x.Runner.report with
                | Some r -> r.Openmpopt.Pass_manager.guards
                | None -> 0
              in
              line "%-10s %-34s %12d %9d %7d" m.Runner.app label x.Runner.cycles
                x.Runner.barriers guards
            | Runner.Err { kind = Fault.Ompgpu_error.Oom; _ } ->
              line "%-10s %-34s %12s" m.Runner.app label "OOM"
            | Runner.Err e ->
              line "%-10s %-34s ERROR: %s" m.Runner.app label
                (Fault.Ompgpu_error.to_string e))
        by_app;
      line "%s" "")
    Proxyapps.Apps.all
