(** The OpenMPOpt pass driver: the paper's optimization pipeline.

    [run_pipeline] executes a {!Pipeline.t} over a MiniIR module produced
    by the front-end.  The full pipeline runs aggressive internalization,
    then rounds of mode-invariant runtime-call folding, deglobalization
    (HeapToStack / HeapToShared), SPMDzation, the custom state machine
    rewrite, execution-mode folding, runtime-call deduplication,
    dead-parallel-region elimination and generic cleanup.  Every other
    build (the paper artifact's [openmp-opt-disable-*] flags, the Figure 11
    subsets, the DESIGN.md ablations) is a pipeline with passes left out or
    a behavior flag cleared. *)

(** Pipelines: a named, ordered list of pass descriptors with a round
    count, serializable to a stable textual syntax.  The only way to
    select what [run_pipeline] executes.

    Spec syntax (also accepted by [mompc --pipeline] and protocol v3's
    ["pipeline"] request member):

    {v spec   ::= "fast" | "full" | [name "="] passes ["@" rounds] flag*
passes ::= pass ("," pass)*
flag   ::= "!nogroup" | "!noshared" v}

    e.g. ["fast=internalize,fold,cleanup@1"].  Rounds default to 1;
    [!nogroup] disables Fig. 7 guard grouping, [!noshared] disables
    HeapToShared. *)
module Pipeline : sig
  (** One schedulable pass of the OpenMPOpt driver.  [Fold] is the
      mode-invariant fold sweep plus its trailing simplify (the "early"
      block); [Fold_late] folds execution-mode queries; [Cleanup] is a
      generic simplify sweep. *)
  type pass =
    | Internalize
    | Fold
    | Deglobalize
    | Spmdize
    | State_machine
    | Fold_late
    | Dedup
    | Dead_regions
    | Cleanup

  val all_passes : pass list
  (** Every pass, in the full pipeline's canonical order. *)

  val pass_name : pass -> string
  (** The stable spec-syntax name (e.g. ["state-machine"]). *)

  val pass_of_name : string -> pass option

  type t = {
    name : string;  (** display name; not part of [fingerprint] *)
    passes : pass list;  (** executed in order, each round *)
    rounds : int;  (** [Internalize] still runs only once, before round 1 *)
    grouping : bool;  (** Fig. 7 side-effect grouping during SPMDzation *)
    heap_to_shared : bool;  (** HeapToShared during deglobalization *)
  }

  val max_rounds : int
  (** Upper bound [of_string] accepts for [rounds] (16). *)

  val full : t
  (** The paper's default pipeline: every pass, three rounds. *)

  val fast : t
  (** The low-latency tier answering cold daemon requests:
      internalization + mode-invariant folding + cleanup, one round
      (["fast=internalize,fold,cleanup@1"]). *)

  val builtins : (string * t) list
  (** The named tiers [of_string] resolves by bare name: fast, full. *)

  val find : string -> t option

  val to_string : t -> string
  (** Canonical spec, [name ^ "=" ^ body]; [of_string (to_string p)] yields
      [p] back (names are preserved). *)

  val of_string : string -> (t, string) result
  (** Parse a spec.  Unknown pass names, unknown flags, invalid names and
      out-of-range round counts are [Error] with a human-readable message —
      callers on the service path map it to the [Bad_request] taxonomy
      error. *)

  val fingerprint : t -> string
  (** Stable semantic identity — the spec body without the display name —
      used as part of the content address of a compile (see
      [Ompgpu_api.cache_key]).  Two pipelines with equal fingerprints run
      the same pass sequence and produce the same bytes. *)

  val same_semantics : t -> t -> bool
  (** Equality ignoring the display name (i.e. equal fingerprints). *)

  val equal : t -> t -> bool
end

(** What the pipeline did — the counts behind the paper's Figure 9. *)
type report = {
  remarks : Remark.t list;  (** deduplicated, in emission order *)
  internalized : int;
  heap_to_stack : int;  (** allocations moved back to the stack (OMP110) *)
  heap_to_shared : int;  (** allocations turned into static shared memory (OMP111) *)
  shared_bytes : int;  (** bytes of static shared memory introduced *)
  spmdized : int;  (** kernels converted to SPMD mode (OMP120) *)
  guards : int;  (** guarded regions emitted during SPMDzation *)
  custom_state_machines : int;  (** kernels rewritten without function pointers *)
  csm_fallbacks : int;  (** rewrites that kept an indirect fallback *)
  folds_exec_mode : int;  (** __kmpc_is_spmd_exec_mode calls folded *)
  folds_parallel_level : int;  (** __kmpc_parallel_level calls folded *)
  folds_thread_exec : int;  (** thread-id queries folded to 0 in main-only code *)
  folds_launch_bounds : int;  (** launch-parameter queries folded to constants *)
  deduplicated_calls : int;  (** runtime queries deduplicated (OMP170) *)
  dead_regions : int;  (** effect-free parallel regions removed (OMP160) *)
}

val empty_report : report

val counters_of_report : report -> (string * int) list
(** The int fields of the report as named counters, in a stable order (the
    keys of the [--stats-json] export; remarks are not included). *)

val report_to_json : report -> Observe.Json.t
(** Counters plus the remark list (schema in docs/OBSERVABILITY.md). *)

val pp_report : Format.formatter -> report -> unit

val run_pipeline :
  ?pipeline:Pipeline.t ->
  ?injector:Fault.Injector.t ->
  ?trace:Observe.Trace.t ->
  Ir.Irmod.t ->
  report
(** [run_pipeline m] optimizes [m] in place, executing [pipeline] (default
    [Pipeline.full]), and reports what happened.  The module remains
    verifier-clean; every transformation preserves the observable trace
    semantics of the program (checked by the differential test suite).

    [injector] arms the [Pass_crash] fault site: each executed pass first
    draws a coin and raises a structured
    [Fault.Ompgpu_error.Pass_crash {pass; round}] error when it fires —
    exercising the driver-level recovery paths.

    All mutable pipeline state (remark sink, counters, trace) is local to
    one [run_pipeline] invocation, so concurrent runs on distinct modules
    from different domains are safe and cannot observe each other's
    remarks: each run creates its own remark sink.

    When [trace] is given, every executed pass records one
    [Observe.Trace.event] per round: the pass's wall time (monotonic clock,
    so work on other domains does not inflate it), module and per-function
    IR deltas, and the increments to the report counters (plus a ["remarks"]
    pseudo-counter with the number of remarks the pass emitted).  Passes
    absent from the pipeline record nothing. *)
