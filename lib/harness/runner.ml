(* Compile + optimize + simulate one proxy application under one build
   configuration, collecting the metrics the paper reports. *)

type metrics = {
  cycles : int;
  smem_bytes : int;
  registers : int;
  heap_high_water : int;
  instructions : int;
  barriers : int;
  atomics : int;
  divergent_branches : int;
  indirect_calls : int;
  runtime_calls : int;
  checksum : float option;  (* the app's traced result, for cross-checking *)
  report : Openmpopt.Pass_manager.report option;
  kernel_stats : Gpusim.Interp.launch_stats list;  (* oldest first *)
  trace : Observe.Trace.t option;  (* present when run with [with_trace] *)
}

(* Every failure is one structured error: kind, phase, optional location,
   message and (when recording is on) the raise-point backtrace.  Match on
   [e.kind] where the old [Oom]/[Error] distinction mattered. *)
type outcome = Ok of metrics | Err of Fault.Ompgpu_error.t

type measurement = { app : string; config : Config.t; outcome : outcome }

(* Front-end compile only: the returned pipeline says whether (and how) the
   OpenMP-aware optimizer still has to run.  Splitting the front end from the
   middle end lets the cached path content-address the *unoptimized* module
   text and skip the optimize+simulate work on a hit. *)
let frontend_for (config : Config.t) (app : Proxyapps.App.t)
    (scale : Proxyapps.App.scale) =
  let file = app.Proxyapps.App.name ^ ".c" in
  match config.Config.build with
  | Config.Llvm12 ->
    let src = app.Proxyapps.App.omp_source scale in
    (Frontend.Codegen.compile ~scheme:Frontend.Codegen.Legacy ~file src, None)
  | Config.Dev_noopt ->
    let src = app.Proxyapps.App.omp_source scale in
    (Frontend.Codegen.compile ~scheme:Frontend.Codegen.Simplified ~file src, None)
  | Config.Dev pipeline ->
    let src = app.Proxyapps.App.omp_source scale in
    (Frontend.Codegen.compile ~scheme:Frontend.Codegen.Simplified ~file src, Some pipeline)
  | Config.Cuda ->
    let src = app.Proxyapps.App.cuda_source scale in
    (Frontend.Codegen.compile ~scheme:Frontend.Codegen.Cuda ~file src, None)

(* Attribute one phase of one job to the profile collector, when there is
   one.  The stack is [job label; phase], which folds into the
   per-job-per-phase flamegraph `make perf` renders (docs/PERF.md). *)
let prof perf ~plabel phase f =
  match perf with
  | None -> f ()
  | Some p -> Observe.Perf.record p ~stack:[ plabel; phase ] f

let checksum_of_trace sim =
  match Gpusim.Interp.trace_values sim with
  | [ Gpusim.Rvalue.F v ] -> Some v
  | [ Gpusim.Rvalue.I v ] -> Some (Int64.to_float v)
  | _ -> None

(* Verify + simulate an already-optimized module. *)
let measure ~machine ~trace ?injector ?perf ?(plabel = "") (m : Ir.Irmod.t)
    (report : Openmpopt.Pass_manager.report option) : outcome =
  match prof perf ~plabel "verify" (fun () -> Ir.Verify.check m) with
  | Result.Error msg ->
    Err
      (Fault.Ompgpu_error.make Fault.Ompgpu_error.Verify
         ~phase:Fault.Ompgpu_error.Verifying msg)
  | Result.Ok () -> (
    let sim = Gpusim.Interp.create ?injector machine m in
    match prof perf ~plabel "simulate" (fun () -> Gpusim.Interp.run_host sim) with
    | exception e ->
      Err
        (Errors.classify ~phase:Fault.Ompgpu_error.Simulating e
           (Printexc.get_raw_backtrace ()))
    | () ->
      let stats = sim.Gpusim.Interp.kernel_stats in
      let sum f = List.fold_left (fun acc s -> acc + f s) 0 stats in
      Ok
        {
          cycles = Gpusim.Interp.total_kernel_cycles sim;
          smem_bytes = Gpusim.Interp.max_shared_bytes sim;
          registers = Gpusim.Interp.max_registers sim;
          heap_high_water =
            List.fold_left
              (fun acc (s : Gpusim.Interp.launch_stats) ->
                max acc s.heap_high_water)
              0 stats;
          instructions = sum (fun s -> s.Gpusim.Interp.instructions);
          barriers = sum (fun s -> s.Gpusim.Interp.barriers);
          atomics =
            sum (fun s ->
                s.Gpusim.Interp.atomics_global + s.Gpusim.Interp.atomics_shared);
          divergent_branches = sum (fun s -> s.Gpusim.Interp.divergent_branches);
          indirect_calls = sum (fun s -> s.Gpusim.Interp.indirect_calls);
          runtime_calls = sum (fun s -> s.Gpusim.Interp.runtime_calls);
          checksum = checksum_of_trace sim;
          report;
          kernel_stats = List.rev stats;
          trace;
        })

(* Machine descriptions are immutable records of scalars, so marshalling is
   a deterministic content fingerprint.  Batches hash the same machine for
   every job, so one physical-equality slot removes the rehash. *)
let fingerprint_memo : (Gpusim.Machine.t * string) option ref = ref None

let machine_fingerprint (machine : Gpusim.Machine.t) =
  match !fingerprint_memo with
  | Some (m, fp) when m == machine -> fp
  | _ ->
    let fp = Digest.to_hex (Digest.string (Marshal.to_string machine [])) in
    fingerprint_memo := Some (machine, fp);
    fp

let scale_fingerprint = function
  | Proxyapps.App.Tiny -> "tiny"
  | Proxyapps.App.Bench -> "bench"

(* The content address of one pipeline job (docs/SCHEDULER.md): the
   unoptimized MiniIR text plus everything else that determines the
   measurement — the build (its pipeline), the simulated machine, the
   problem scale, and the (derived) fault-injector fingerprint: an injected
   run must never share a cached result with a clean one, nor with a
   different seed.  The app name is deliberately NOT part of the key. *)
let cache_key ~machine ~scale ?(inject = "") (m : Ir.Irmod.t) (config : Config.t) =
  Sched.Cache.key
    [
      Ir.Printer.module_to_string m;
      Config.build_fingerprint config.Config.build;
      machine_fingerprint machine;
      scale_fingerprint scale;
      inject;
    ]

(* The per-job injector: derived from the config's specs with a tag naming
   the job, so the coin sequence one job sees is independent of how pool
   domains interleave jobs.  The tag's trailing "|0" stays: every seed and
   rate the tests and the fault matrix probed was probed under it. *)
let injector_for ~scale (app : Proxyapps.App.t) (config : Config.t) =
  let base = Fault.Injector.create config.Config.inject in
  if Fault.Injector.is_none base then base
  else
    Fault.Injector.derive base
      (Printf.sprintf "%s|%s|%s|0" app.Proxyapps.App.name
         (Config.build_fingerprint config.Config.build)
         (scale_fingerprint scale))

let run ?(machine = Gpusim.Machine.bench_machine) ?(scale = Proxyapps.App.Bench)
    ?(with_trace = false) ?cache ?perf (app : Proxyapps.App.t) (config : Config.t) :
    measurement =
  let plabel = app.Proxyapps.App.name ^ "/" ^ config.Config.label in
  (* each job owns a fresh trace (and, inside the pass manager, a fresh
     remark sink), so concurrent jobs never interleave their events *)
  let trace = if with_trace then Some (Observe.Trace.create ()) else None in
  let injector = injector_for ~scale app config in
  (* the Pool_stall site: an injected stall at job start, as
     [Ompgpu_api.compile_buffered] has *)
  Fault.Injector.stall injector;
  let classify ~phase e = Err (Errors.classify ~phase e (Printexc.get_raw_backtrace ())) in
  let outcome =
    (* the front end always runs: its text is the cache key.  Front-end
       failures produce no module, hence no key, and are never cached. *)
    match prof perf ~plabel "frontend" (fun () -> frontend_for config app scale) with
    | exception e -> classify ~phase:Fault.Ompgpu_error.Lowering e
    | m, pipeline -> (
      let optimize_and_measure () =
        match
          prof perf ~plabel "optimize" (fun () ->
              Option.map
                (fun pipeline ->
                  Openmpopt.Pass_manager.run_pipeline ~pipeline ~injector ?trace m)
                pipeline)
        with
        | exception e -> classify ~phase:Fault.Ompgpu_error.Optimizing e
        | report -> measure ~machine ~trace ~injector ?perf ~plabel m report
      in
      match cache with
      | None -> optimize_and_measure ()
      | Some cache ->
        (* the optimize+simulate work — the expensive part — is what a hit
           skips *)
        let key =
          cache_key ~machine ~scale ~inject:(Fault.Injector.fingerprint injector) m
            config
        in
        Sched.Cache.find_or_compute cache ~key optimize_and_measure)
  in
  { app = app.Proxyapps.App.name; config; outcome }

(* The batch entry point of the scheduler: compile+optimize+simulate every
   (app, config) pair, concurrently when a pool is given.  Results are in
   input order, so sequential and parallel runs render identical tables.
   [run] settles every failure into an [Err] outcome; the pool's guard
   contains anything else as a Scheduling-phase error. *)
let run_batch ?machine ?scale ?with_trace ?pool ?cache ?perf jobs =
  let one (app, config) = run ?machine ?scale ?with_trace ?cache ?perf app config in
  match pool with
  | None -> List.map one jobs
  | Some pool ->
    List.map2
      (fun (app, config) result ->
        match result with
        | Result.Ok m -> m
        | Result.Error (e, bt) ->
          {
            app = app.Proxyapps.App.name;
            config;
            outcome = Err (Errors.classify ~phase:Fault.Ompgpu_error.Scheduling e bt);
          })
      jobs
      (Sched.Pool.map_list_guarded pool one jobs)

(* Run a list of configurations for one app; the result list is in config
   order regardless of the execution interleaving. *)
let run_configs ?machine ?scale ?with_trace ?pool ?cache ?perf app configs =
  run_batch ?machine ?scale ?with_trace ?pool ?cache ?perf
    (List.map (fun config -> (app, config)) configs)

(* Relative performance versus a baseline measurement (the paper normalizes
   to LLVM 12): >1 means faster than the baseline. *)
let relative ~baseline m =
  match (baseline.outcome, m.outcome) with
  | Ok b, Ok x when x.cycles > 0 -> Some (float_of_int b.cycles /. float_of_int x.cycles)
  | _ -> None

(* One measurement as a machine-readable perf record (bench/main.ml appends
   these to BENCH_observe.json). *)
let json_of_measurement (m : measurement) : Observe.Json.t =
  let base =
    [
      ("schema", Observe.Json.Int Observe.Json.schema_version);
      ("app", Observe.Json.String m.app);
      ("config", Observe.Json.String m.config.Config.label);
    ]
  in
  match m.outcome with
  | Err e ->
    Observe.Json.Obj
      (base
      @ [
          ("outcome", Observe.Json.String "error");
          ("error", Fault.Ompgpu_error.to_json e);
        ])
  | Ok x ->
    Observe.Json.Obj
      (base
      @ [
          ("outcome", Observe.Json.String "ok");
          ("cycles", Observe.Json.Int x.cycles);
          ("smem_bytes", Observe.Json.Int x.smem_bytes);
          ("registers", Observe.Json.Int x.registers);
          ("heap_high_water", Observe.Json.Int x.heap_high_water);
          ("instructions", Observe.Json.Int x.instructions);
          ("barriers", Observe.Json.Int x.barriers);
          ("atomics", Observe.Json.Int x.atomics);
          ("divergent_branches", Observe.Json.Int x.divergent_branches);
          ("indirect_calls", Observe.Json.Int x.indirect_calls);
          ("runtime_calls", Observe.Json.Int x.runtime_calls);
          ( "checksum",
            match x.checksum with
            | Some c -> Observe.Json.Float c
            | None -> Observe.Json.Null );
          ( "report",
            match x.report with
            | Some r -> Openmpopt.Pass_manager.report_to_json r
            | None -> Observe.Json.Null );
          ( "kernels",
            Observe.Json.List (List.map Gpusim.Stats.json_of_launch x.kernel_stats) );
          ( "passes",
            match x.trace with
            | Some tr -> Observe.Trace.to_json tr
            | None -> Observe.Json.List [] );
        ])
