(** Build configurations of the evaluation (Section V / Figure 11 legends). *)

type build =
  | Llvm12  (** legacy globalization, no OpenMP-aware middle end *)
  | Dev_noopt  (** simplified globalization, explicit OpenMP opts disabled *)
  | Dev of Openmpopt.Pass_manager.Pipeline.t
      (** simplified + a pipeline (a subset of passes) *)
  | Cuda  (** kernel-style build of the CUDA source *)

type t = {
  label : string;
  build : build;
  inject : Fault.Injector.spec list;
      (** armed fault sites; the runner derives a per-(job, attempt)
          injector from these so batch results are schedule-independent *)
}

val with_inject : Fault.Injector.spec list -> t -> t
(** The same configuration with fault injection armed.  Injection joins the
    cache key (via the derived injector's fingerprint), so injected and
    clean runs never share cached results. *)

val build_fingerprint : build -> string
(** Content identity of a build for the scheduler's result cache
    ([dev{pipeline:...}] for a [Dev] build).  Excludes the display label
    and the pipeline's name: configs that differ only in those share cache
    entries. *)

val spec : string -> Openmpopt.Pass_manager.Pipeline.t
(** [Pipeline.of_string] for specs written into the program; raises
    [Invalid_argument] on a malformed one. *)

(** Named pass subsets mirroring the bar labels of Figure 11. *)

val only_h2s : Openmpopt.Pass_manager.Pipeline.t
val h2s2 : Openmpopt.Pass_manager.Pipeline.t
val h2s2_rtc : Openmpopt.Pass_manager.Pipeline.t
val h2s2_rtc_csm : Openmpopt.Pass_manager.Pipeline.t
val h2s2_rtc_spmd : Openmpopt.Pass_manager.Pipeline.t
val dev_full : Openmpopt.Pass_manager.Pipeline.t

val llvm12 : t
val no_opt : t
val heap_2_stack : t
val h2s2_cfg : t
val h2s2_rtc_cfg : t
val h2s2_rtc_csm_cfg : t
val h2s2_rtc_spmd_cfg : t
val dev0 : t
val cuda : t

val fig11_configs : string -> t list
(** The configuration set of each application's Figure 11 plot ("we
    restricted each plot to the configurations that impact performance"). *)

val fig10_configs : string -> t list
