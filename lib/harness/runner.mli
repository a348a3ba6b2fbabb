(** Compile + optimize + simulate one proxy application under one build
    configuration, collecting the metrics the paper reports. *)

type metrics = {
  cycles : int;
  smem_bytes : int;
  registers : int;
  heap_high_water : int;
  instructions : int;
  barriers : int;
  atomics : int;  (** global + shared atomic RMW operations executed *)
  divergent_branches : int;  (** structural divergence events (cost model) *)
  indirect_calls : int;
  runtime_calls : int;
  checksum : float option;  (** the app's traced result, for cross-checking *)
  report : Openmpopt.Pass_manager.report option;  (** for Dev builds *)
  kernel_stats : Gpusim.Interp.launch_stats list;
      (** per-launch cost-model counters, oldest launch first *)
  trace : Observe.Trace.t option;
      (** per-pass pipeline events; present only for Dev builds run with
          [with_trace] *)
}

type outcome =
  | Ok of metrics
  | Err of Fault.Ompgpu_error.t
      (** any failure, as a structured taxonomy value: match on [kind]
          (e.g. [Oom] for the device-heap exhaustion of RSBench, Fig. 11b);
          the raise-point backtrace is preserved when recording is on *)

type measurement = { app : string; config : Config.t; outcome : outcome }

val cache_key :
  machine:Gpusim.Machine.t ->
  scale:Proxyapps.App.scale ->
  ?inject:string ->
  Ir.Irmod.t ->
  Config.t ->
  string
(** Content address of one pipeline job: digest of the unoptimized MiniIR
    module text, the build fingerprint (its pipeline), the machine
    description, the scale and the fault-injector fingerprint ([inject],
    default [""] = no injection).  Exposed for the test suite; the exact
    definition is documented in docs/SCHEDULER.md. *)

val run :
  ?machine:Gpusim.Machine.t ->
  ?scale:Proxyapps.App.scale ->
  ?with_trace:bool ->
  ?cache:outcome Sched.Cache.t ->
  ?perf:Observe.Perf.t ->
  Proxyapps.App.t ->
  Config.t ->
  measurement
(** Defaults: [Gpusim.Machine.bench_machine], [Proxyapps.App.Bench],
    [with_trace:false].  Tracing is off by default so that bechamel
    micro-benchmarks measure the pipeline itself, not the instrumentation.

    [perf] attributes each phase (frontend, optimize, verify, simulate)
    to the profile collector under the stack [app/config-label; phase];
    `make perf` renders the collected samples as a flamegraph and an
    allocation profile (docs/PERF.md).  Safe to share across pool
    domains.

    Never raises: every failure settles into an [Err] outcome, with the
    phase it failed in (a front-end failure is [Lowering], an optimizer
    failure [Optimizing]).  When the config arms fault sites
    ([Config.with_inject]), a per-job injector is derived and threaded
    through the pass manager and the simulator.

    With [cache], the front end still runs (its output text is the content
    address) but the optimize+simulate work is skipped on a hit.  A cached
    outcome carries the trace and report of the job that computed it;
    front-end failures are never cached.  With or without [cache], a job's
    first run renders the same [json_of_measurement]. *)

val run_configs :
  ?machine:Gpusim.Machine.t ->
  ?scale:Proxyapps.App.scale ->
  ?with_trace:bool ->
  ?pool:Sched.Pool.t ->
  ?cache:outcome Sched.Cache.t ->
  ?perf:Observe.Perf.t ->
  Proxyapps.App.t ->
  Config.t list ->
  measurement list
(** Results in config order regardless of execution interleaving. *)

val run_batch :
  ?machine:Gpusim.Machine.t ->
  ?scale:Proxyapps.App.scale ->
  ?with_trace:bool ->
  ?pool:Sched.Pool.t ->
  ?cache:outcome Sched.Cache.t ->
  ?perf:Observe.Perf.t ->
  (Proxyapps.App.t * Config.t) list ->
  measurement list
(** Compile+optimize+simulate every (app, config) pair — concurrently when
    [pool] is given, each job with its own trace and remark sink — and
    return measurements in input order, so sequential and parallel batches
    render byte-identical tables.  No exception escapes a batch.  Bounded
    retry of transient failures lives in [Ompgpu_api.compile_buffered]'s
    per-request loop, not here. *)

val relative : baseline:measurement -> measurement -> float option
(** Performance relative to [baseline] (the paper normalizes to LLVM 12):
    greater than 1 means faster. *)

val json_of_measurement : measurement -> Observe.Json.t
(** One measurement as a machine-readable perf record: simulator counters,
    report counters, per-kernel cost-model stats and (when traced) the
    per-pass pipeline events.  bench/main.ml collects these into
    BENCH_observe.json. *)
