(** Renderers for the evaluation tables and figures.  Each returns the rows
    the paper reports; EXPERIMENTS.md records paper-vs-measured.

    Every renderer collects its measurements through {!Runner.run_batch}
    first and renders from the ordered results into a buffer local to the
    call, so a table is byte-identical whether it was produced sequentially
    or on a [pool] at any [-j], and concurrent renderers cannot corrupt
    each other's output.  [cache] shares pipeline results across tables
    that measure the same (module, pipeline, machine, scale) cell. *)

val fig9 :
  ?machine:Gpusim.Machine.t ->
  ?scale:Proxyapps.App.scale ->
  ?pool:Sched.Pool.t ->
  ?cache:Runner.outcome Sched.Cache.t ->
  unit ->
  string
(** Figure 9: optimization opportunities and remarks per kernel. *)

val fig10 :
  ?machine:Gpusim.Machine.t ->
  ?scale:Proxyapps.App.scale ->
  ?pool:Sched.Pool.t ->
  ?cache:Runner.outcome Sched.Cache.t ->
  unit ->
  string
(** Figure 10: kernel cycles, shared memory, registers per build. *)

val check_consistency : Runner.measurement list -> string list
(** Cross-check the application checksum across configurations; returns a
    MISMATCH line per disagreement (empty = all consistent). *)

val fig11 :
  ?machine:Gpusim.Machine.t ->
  ?scale:Proxyapps.App.scale ->
  ?pool:Sched.Pool.t ->
  ?cache:Runner.outcome Sched.Cache.t ->
  Proxyapps.App.t ->
  string
(** One application's Figure 11 plot (relative to LLVM 12). *)

val fig11_all :
  ?machine:Gpusim.Machine.t ->
  ?scale:Proxyapps.App.scale ->
  ?pool:Sched.Pool.t ->
  ?cache:Runner.outcome Sched.Cache.t ->
  unit ->
  string

val pass_breakdown :
  ?machine:Gpusim.Machine.t -> ?scale:Proxyapps.App.scale -> Proxyapps.App.t -> string
(** Per-round/per-pass pipeline breakdown for one application under the
    default developer build: wall time, IR deltas and report-counter
    increments, from the [Observe.Trace] events.  Trace times are wall
    times, so this table is not expected to be reproducible byte-for-byte
    and takes no pool. *)

val pass_breakdown_all :
  ?machine:Gpusim.Machine.t -> ?scale:Proxyapps.App.scale -> unit -> string

val ablation_configs : (string * Openmpopt.Pass_manager.Pipeline.t) list
(** The ablation rows: label and the pipeline each runs. *)

val ablations :
  ?machine:Gpusim.Machine.t ->
  ?scale:Proxyapps.App.scale ->
  ?pool:Sched.Pool.t ->
  ?cache:Runner.outcome Sched.Cache.t ->
  unit ->
  string
(** The DESIGN.md ablations: guard grouping, internalization, heap-to-shared. *)
