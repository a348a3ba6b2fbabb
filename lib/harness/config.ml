(* Build configurations of the evaluation (Section V / Figure 11 legends). *)

module Pipeline = Openmpopt.Pass_manager.Pipeline

type build =
  | Llvm12  (* legacy globalization, no OpenMP-aware middle end *)
  | Dev_noopt  (* simplified globalization, explicit OpenMP opts disabled *)
  | Dev of Pipeline.t  (* simplified + a pipeline (a subset of passes) *)
  | Cuda  (* kernel-style build of the CUDA source *)

type t = { label : string; build : build; inject : Fault.Injector.spec list }

let with_inject inject t = { t with inject }

(* Content identity of a build for the scheduler's result cache.  The label
   is deliberately excluded: two configs with different labels but the same
   build produce the same measurement and should share a cache entry. *)
let build_fingerprint = function
  | Llvm12 -> "llvm12"
  | Dev_noopt -> "dev-noopt"
  | Dev p -> "dev{" ^ Pipeline.fingerprint p ^ "}"
  | Cuda -> "cuda"

let spec s =
  match Pipeline.of_string s with Ok p -> p | Error msg -> invalid_arg ("Config.spec: " ^ msg)

(* Named pass subsets, mirroring the bar labels of Figure 11: the full
   pipeline with the switched-off optimizations' passes left out. *)
let only_h2s = spec "internalize,deglobalize,cleanup@3!noshared"
let h2s2 = spec "internalize,deglobalize,cleanup@3"
let h2s2_rtc = spec "internalize,fold,deglobalize,fold-late,dedup,dead-regions,cleanup@3"

let h2s2_rtc_csm =
  spec "internalize,fold,deglobalize,state-machine,fold-late,dedup,dead-regions,cleanup@3"

let h2s2_rtc_spmd =
  spec "internalize,fold,deglobalize,spmdize,fold-late,dedup,dead-regions,cleanup@3"

let dev_full = Pipeline.full

let mk label build = { label; build; inject = [] }

let llvm12 = mk "LLVM 12" Llvm12
let no_opt = mk "No OpenMP Optimization" Dev_noopt
let heap_2_stack = mk "heap-2-stack" (Dev only_h2s)
let h2s2_cfg = mk "heap-2-stack&shared (=h2s2)" (Dev h2s2)
let h2s2_rtc_cfg = mk "h2s2 + RTCspec" (Dev h2s2_rtc)
let h2s2_rtc_csm_cfg = mk "h2s2 + RTCspec + CSM" (Dev h2s2_rtc_csm)
let h2s2_rtc_spmd_cfg = mk "h2s2 + RTCspec + SPMDzation" (Dev h2s2_rtc_spmd)
let dev0 = mk "LLVM Dev 0" (Dev dev_full)
let cuda = mk "CUDA (Clang Dev)" Cuda

(* The configuration set used for each application's Figure 11 plot ("we
   restricted each plot to the configurations that impact performance"). *)
let fig11_configs (app_name : string) =
  match app_name with
  | "xsbench" | "rsbench" ->
    [ llvm12; no_opt; h2s2_cfg; h2s2_rtc_cfg; dev0; cuda ]
  | "su3bench" ->
    [ llvm12; no_opt; h2s2_cfg; h2s2_rtc_csm_cfg; h2s2_rtc_spmd_cfg; dev0; cuda ]
  | "miniqmc" ->
    [ llvm12; no_opt; heap_2_stack; h2s2_cfg; h2s2_rtc_csm_cfg; h2s2_rtc_spmd_cfg; dev0 ]
  | _ -> [ llvm12; no_opt; dev0; cuda ]

let fig10_configs (app_name : string) =
  match app_name with
  | "miniqmc" -> [ llvm12; dev0 ]
  | _ -> [ cuda; llvm12; dev0 ]
