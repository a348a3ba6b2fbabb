(* The core optimizer: each pass individually, the pipeline, remarks, and
   differential semantics checks (optimizations must preserve traces). *)

open Openmpopt

let default = Pass_manager.Pipeline.full

(* ------------------------------------------------------------------ *)
(* HeapToStack / HeapToShared                                          *)
(* ------------------------------------------------------------------ *)

let h2s_src =
  {|
double Out[8];
static double use(double* p) { return p[0] * 2.0; }
int main() {
  #pragma omp target teams distribute parallel for num_teams(2) thread_limit(4)
  for (int i = 0; i < 8; i++) {
    double v = (double)i;
    Out[i] = use(&v);
  }
  double s = 0.0;
  for (int i = 0; i < 8; i++) { s += Out[i]; }
  trace_f64(s);
  return 0;
}
|}

let test_heap_to_stack_fires () =
  let m = Helpers.compile h2s_src in
  let report = Helpers.optimize m in
  Alcotest.(check int) "one variable recovered" 1 report.Pass_manager.heap_to_stack;
  (* the runtime allocation is gone from the module *)
  let count_allocs =
    List.fold_left
      (fun acc f ->
        Ir.Func.fold_instrs f ~init:acc ~g:(fun acc _ i ->
            match i.Ir.Instr.kind with
            | Ir.Instr.Call (_, Ir.Instr.Direct "__kmpc_alloc_shared", _) -> acc + 1
            | _ -> acc))
      0 (Ir.Irmod.defined_funcs m)
  in
  Alcotest.(check int) "no runtime allocations left" 0 count_allocs;
  Alcotest.check Helpers.trace_testable "semantics preserved" [ "f:56" ]
    (Helpers.run_trace ~pipeline:default h2s_src)

let test_heap_to_stack_remark () =
  let m = Helpers.compile h2s_src in
  let report = Helpers.optimize m in
  Alcotest.(check bool) "OMP110 emitted" true
    (List.exists (fun r -> r.Remark.id = 110) report.Pass_manager.remarks)

let h2shared_src =
  {|
double Out[4];
int main() {
  #pragma omp target teams distribute num_teams(2) thread_limit(4)
  for (int i = 0; i < 4; i++) {
    double team_val = (double)(i + 1);
    #pragma omp parallel for
    for (int j = 0; j < 4; j++) {
      #pragma omp atomic
      team_val += 0.5;
    }
    Out[i] = team_val;
  }
  for (int i = 0; i < 4; i++) { trace_f64(Out[i]); }
  return 0;
}
|}

let test_heap_to_shared_fires () =
  let m = Helpers.compile h2shared_src in
  let report = Helpers.optimize m in
  Alcotest.(check bool) "team_val and the args buffer move to shared memory" true
    (report.Pass_manager.heap_to_shared >= 2);
  Alcotest.(check bool) "shared globals created" true
    (List.exists
       (fun g -> g.Ir.Irmod.gspace = Ir.Types.Shared)
       m.Ir.Irmod.globals);
  Alcotest.(check bool) "OMP111 emitted" true
    (List.exists (fun r -> r.Remark.id = 111) report.Pass_manager.remarks);
  Alcotest.check Helpers.trace_testable "semantics preserved"
    [ "f:3"; "f:4"; "f:5"; "f:6" ]
    (Helpers.run_trace ~pipeline:default h2shared_src)

let test_deglobalization_missed_remark () =
  (* an allocation that escapes to unknown code cannot be recovered *)
  let src =
    {|
extern void unknown_sink(double* p);
double Out[4];
int main() {
  #pragma omp target teams distribute parallel for num_teams(1) thread_limit(4)
  for (int i = 0; i < 4; i++) {
    double v = (double)i;
    unknown_sink(&v);
    Out[i] = v;
  }
  return 0;
}
|}
  in
  let m = Helpers.compile src in
  let report = Helpers.optimize m in
  Alcotest.(check int) "nothing recovered" 0 report.Pass_manager.heap_to_stack;
  Alcotest.(check bool) "OMP112 missed-opportunity remark" true
    (List.exists
       (fun r -> r.Remark.id = 112 && r.Remark.kind = Remark.Missed)
       report.Pass_manager.remarks);
  Alcotest.(check bool) "OMP113 with capture reason" true
    (List.exists (fun r -> r.Remark.id = 113) report.Pass_manager.remarks)

let test_nocapture_assumption_enables_h2s () =
  let src assume =
    Printf.sprintf
      {|
%s
extern void annotated_sink(double* p);
double Out[4];
int main() {
  #pragma omp target teams distribute parallel for num_teams(1) thread_limit(4)
  for (int i = 0; i < 4; i++) {
    double v = (double)i;
    annotated_sink(&v);
    Out[i] = v;
  }
  return 0;
}
|}
      assume
  in
  let without = Helpers.compile (src "") in
  let with_ = Helpers.compile (src "#pragma omp assume ext_nocapture") in
  let r1 = Helpers.optimize without in
  let r2 = Helpers.optimize with_ in
  Alcotest.(check int) "blocked without the assumption" 0 r1.Pass_manager.heap_to_stack;
  Alcotest.(check int) "recovered with ext_nocapture" 1 r2.Pass_manager.heap_to_stack

let test_shared_budget_respected () =
  (* shared budget exceeded: stays globalized, with remarks *)
  let src =
    {|
double Out[2];
int main() {
  #pragma omp target teams distribute num_teams(1) thread_limit(2)
  for (int i = 0; i < 2; i++) {
    double huge[16000];   // 128 KB > the 64 KB budget
    huge[0] = (double)i;
    #pragma omp parallel for
    for (int j = 0; j < 2; j++) {
      #pragma omp atomic
      huge[0] += 1.0;
    }
    Out[i] = huge[0];
  }
  return 0;
}
|}
  in
  let m = Helpers.compile src in
  let report = Helpers.optimize m in
  Alcotest.(check bool) "huge allocation not placed in shared memory" true
    (report.Pass_manager.shared_bytes < 128 * 1024)

(* ------------------------------------------------------------------ *)
(* SPMDzation                                                          *)
(* ------------------------------------------------------------------ *)

let test_spmdization_converts () =
  let m = Helpers.compile h2shared_src in
  let report = Helpers.optimize m in
  Alcotest.(check int) "kernel converted" 1 report.Pass_manager.spmdized;
  let kernel = List.hd (Ir.Irmod.kernels m) in
  Alcotest.(check bool) "mode flipped" true
    ((Option.get kernel.Ir.Func.kernel).Ir.Func.exec_mode = Ir.Func.Spmd);
  Alcotest.(check bool) "worker state machine removed" true
    (Ir.Func.fold_instrs kernel ~init:true ~g:(fun acc _ i ->
         acc
         &&
         match i.Ir.Instr.kind with
         | Ir.Instr.Call (_, Ir.Instr.Direct "__kmpc_worker_wait", _) -> false
         | _ -> true));
  Alcotest.(check bool) "OMP120 emitted" true
    (List.exists (fun r -> r.Remark.id = 120) report.Pass_manager.remarks)

let test_spmdization_blocked_by_external_call () =
  let src =
    {|
extern void mystery();
double Out[2];
int main() {
  #pragma omp target teams num_teams(1) thread_limit(2)
  {
    mystery();
    #pragma omp parallel
    { Out[omp_get_thread_num()] = 1.0; }
  }
  return 0;
}
|}
  in
  let m = Helpers.compile src in
  let report = Helpers.optimize m in
  Alcotest.(check int) "not converted" 0 report.Pass_manager.spmdized;
  Alcotest.(check bool) "OMP121 names the blocker" true
    (List.exists
       (fun r -> r.Remark.id = 121 && r.Remark.kind = Remark.Missed)
       report.Pass_manager.remarks)

let test_spmd_amenable_assumption_unblocks () =
  let src =
    {|
#pragma omp assume ext_spmd_amenable
extern void mystery();
double Out[2];
int main() {
  #pragma omp target teams num_teams(1) thread_limit(2)
  {
    mystery();
    #pragma omp parallel
    { Out[omp_get_thread_num()] = 1.0; }
  }
  return 0;
}
|}
  in
  let m = Helpers.compile src in
  let report = Helpers.optimize m in
  Alcotest.(check int) "converted with the assumption" 1 report.Pass_manager.spmdized

let test_guard_grouping_reduces_barriers () =
  (* Figure 7: adjacent side effects separated by pure code share a guard *)
  let src =
    {|
double A[4];
double B[4];
int main() {
  #pragma omp target teams num_teams(1) thread_limit(4)
  {
    A[0] = 1.0;
    // the address computation for B below is the SPMD-amenable code the
    // grouping optimization hoists above the pending guarded group
    B[0] = 30.0;
    #pragma omp parallel
    {
      #pragma omp atomic
      A[0] += 1.0;
    }
  }
  trace_f64(A[0] + B[0]);
  return 0;
}
|}
  in
  let grouped = Helpers.compile src in
  let r1 = Helpers.optimize grouped in
  let ungrouped = Helpers.compile src in
  let r2 =
    Helpers.optimize
      ~pipeline:(Helpers.variant "no-group")
      ungrouped
  in
  Alcotest.(check bool) "both SPMDized" true
    (r1.Pass_manager.spmdized = 1 && r2.Pass_manager.spmdized = 1);
  Alcotest.(check bool) "grouping emits fewer guarded regions" true
    (r1.Pass_manager.guards < r2.Pass_manager.guards);
  (* and both are correct *)
  Alcotest.check Helpers.trace_testable "grouped semantics" [ "f:35" ]
    (Helpers.run_trace ~pipeline:default src);
  Alcotest.check Helpers.trace_testable "ungrouped semantics" [ "f:35" ]
    (Helpers.run_trace
       ~pipeline:(Helpers.variant "no-group")
       src)

let test_broadcast_of_guarded_values () =
  (* a value produced by a guarded side effect and used afterwards must be
     broadcast to all threads *)
  let src =
    {|
double A[4];
long Counter[1];
int main() {
  #pragma omp target teams num_teams(1) thread_limit(4)
  {
    long ticket = Counter[0] + 5;
    Counter[0] = ticket;            // guarded store
    double seed = (double)ticket;   // uses the guarded computation
    #pragma omp parallel
    {
      int t = omp_get_thread_num();
      A[t] = seed + (double)t;
    }
  }
  for (int i = 0; i < 4; i++) { trace_f64(A[i]); }
  trace(Counter[0]);
  return 0;
}
|}
  in
  Alcotest.check Helpers.trace_testable "broadcast preserves semantics"
    (Helpers.run_trace src)
    (Helpers.run_trace ~pipeline:default src)

(* ------------------------------------------------------------------ *)
(* Custom state machine                                                *)
(* ------------------------------------------------------------------ *)

let csm_pipeline = Helpers.variant "no-spmd"

let test_csm_rewrites () =
  let m = Helpers.compile h2shared_src in
  let report = Helpers.optimize ~pipeline:csm_pipeline m in
  Alcotest.(check int) "state machine rewritten" 1 report.Pass_manager.custom_state_machines;
  Alcotest.(check int) "no fallback needed" 0 report.Pass_manager.csm_fallbacks;
  let kernel = List.hd (Ir.Irmod.kernels m) in
  let has_indirect =
    Ir.Func.fold_instrs kernel ~init:false ~g:(fun acc _ i ->
        acc
        || match i.Ir.Instr.kind with Ir.Instr.Call (_, Ir.Instr.Indirect _, _) -> true | _ -> false)
  in
  Alcotest.(check bool) "no indirect calls remain" false has_indirect;
  Alcotest.(check bool) "OMP130 emitted" true
    (List.exists (fun r -> r.Remark.id = 130) report.Pass_manager.remarks);
  Alcotest.check Helpers.trace_testable "semantics preserved"
    [ "f:3"; "f:4"; "f:5"; "f:6" ]
    (Helpers.run_trace ~pipeline:csm_pipeline h2shared_src)

let test_csm_fallback_for_unknown_regions () =
  let src =
    {|
#pragma omp assume ext_spmd_amenable
extern void external_may_parallel();
double Out[4];
int main() {
  #pragma omp target teams num_teams(1) thread_limit(4)
  {
    external_may_parallel();
    #pragma omp parallel
    { Out[omp_get_thread_num()] = 2.0; }
  }
  return 0;
}
|}
  in
  let m = Helpers.compile src in
  (* also disable SPMDzation so the state machine survives to be rewritten *)
  let report = Helpers.optimize ~pipeline:csm_pipeline m in
  if report.Pass_manager.custom_state_machines > 0 then begin
    Alcotest.(check int) "fallback kept" 1 report.Pass_manager.csm_fallbacks;
    Alcotest.(check bool) "OMP132 fallback remark" true
      (List.exists (fun r -> r.Remark.id = 132) report.Pass_manager.remarks)
  end

let test_csm_multiple_regions_cascade () =
  let src =
    {|
double A[4];
double B[4];
int main() {
  #pragma omp target teams num_teams(1) thread_limit(4)
  {
    #pragma omp parallel
    { A[omp_get_thread_num()] = 1.0; }
    #pragma omp parallel
    { B[omp_get_thread_num()] = 2.0; }
  }
  double s = 0.0;
  for (int i = 0; i < 4; i++) { s += A[i] + B[i]; }
  trace_f64(s);
  return 0;
}
|}
  in
  let m = Helpers.compile src in
  let report = Helpers.optimize ~pipeline:csm_pipeline m in
  Alcotest.(check int) "rewritten with two regions" 1
    report.Pass_manager.custom_state_machines;
  Alcotest.check Helpers.trace_testable "both regions dispatched by id" [ "f:12" ]
    (Helpers.run_trace ~pipeline:csm_pipeline src)

(* ------------------------------------------------------------------ *)
(* Folding                                                             *)
(* ------------------------------------------------------------------ *)

let test_fold_counts () =
  let m = Helpers.compile h2shared_src in
  let report = Helpers.optimize m in
  Alcotest.(check bool) "exec-mode folds" true (report.Pass_manager.folds_exec_mode > 0);
  Alcotest.(check bool) "parallel-level folds" true
    (report.Pass_manager.folds_parallel_level > 0);
  Alcotest.(check bool) "launch-bound folds" true
    (report.Pass_manager.folds_launch_bounds > 0);
  (* after full optimization no __kmpc_is_spmd_exec_mode calls survive *)
  let count =
    List.fold_left
      (fun acc f ->
        Ir.Func.fold_instrs f ~init:acc ~g:(fun acc _ i ->
            match i.Ir.Instr.kind with
            | Ir.Instr.Call (_, Ir.Instr.Direct "__kmpc_is_spmd_exec_mode", _) -> acc + 1
            | _ -> acc))
      0 (Ir.Irmod.defined_funcs m)
  in
  Alcotest.(check int) "mode checks eliminated" 0 count

let test_no_launch_fold_without_clauses () =
  let src =
    {|
double A[4];
int main() {
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < 4; i++) { A[i] = 1.0; }
  return 0;
}
|}
  in
  let m = Helpers.compile src in
  let report = Helpers.optimize m in
  Alcotest.(check int) "no launch-bound folds without constants" 0
    report.Pass_manager.folds_launch_bounds

let test_fold_thread_id_main_only () =
  (* in main-thread-only code omp_get_thread_num folds to 0 *)
  let src =
    {|
double A[2];
static int who() { return omp_get_thread_num(); }
int main() {
  #pragma omp target teams num_teams(1) thread_limit(4)
  {
    A[0] = (double)who();
    #pragma omp parallel
    {
      #pragma omp atomic
      A[1] += 1.0;
    }
  }
  trace_f64(A[0]);
  trace_f64(A[1]);
  return 0;
}
|}
  in
  Alcotest.check Helpers.trace_testable "main-only tid folds to 0"
    (Helpers.run_trace src)
    (Helpers.run_trace ~pipeline:default src)

(* ------------------------------------------------------------------ *)
(* Internalization and simplify                                        *)
(* ------------------------------------------------------------------ *)

let test_internalization () =
  let src =
    {|
double Out[2];
double exported_helper(double x) { return x + 1.0; }
int main() {
  #pragma omp target teams distribute parallel for num_teams(1) thread_limit(2)
  for (int i = 0; i < 2; i++) { Out[i] = exported_helper((double)i); }
  return 0;
}
|}
  in
  let m = Helpers.compile src in
  let report = Helpers.optimize m in
  Alcotest.(check bool) "exported function internalized" true
    (report.Pass_manager.internalized >= 1);
  Alcotest.(check bool) "internal copy exists" true
    (Ir.Irmod.find_func m "exported_helper.internalized" <> None);
  (* the original remains for external callers *)
  Alcotest.(check bool) "original kept" true
    (Ir.Irmod.find_func m "exported_helper" <> None)

let test_simplify_constant_folding () =
  let m =
    Ir.Parser.parse_module
      {|module "s"
declare void @__devrt_trace(i64)
define internal void @f() {
entry:
  %0 = add i32 i32 2, i32 3
  %1 = icmp slt i32 %0, i32 10
  cbr %1, yes, no
yes:
  call void @__devrt_trace(i64 1)
  ret
no:
  call void @__devrt_trace(i64 2)
  ret
}
|}
  in
  ignore (Simplify.run m);
  let f = Ir.Irmod.find_func_exn m "f" in
  Alcotest.(check int) "branch folded, dead block pruned" 1 (List.length f.Ir.Func.blocks)

let test_simplify_keeps_side_effects () =
  let m =
    Ir.Parser.parse_module
      {|module "s"
declare void @__devrt_trace(i64)
define internal void @f() {
entry:
  call void @__devrt_trace(i64 7)
  %1 = add i32 i32 1, i32 1
  ret
}
|}
  in
  ignore (Simplify.run m);
  let f = Ir.Irmod.find_func_exn m "f" in
  let instrs = (Ir.Func.entry f).Ir.Block.instrs in
  Alcotest.(check int) "dead add removed, trace kept" 1 (List.length instrs)

(* ------------------------------------------------------------------ *)
(* Remark registry                                                     *)
(* ------------------------------------------------------------------ *)

let test_remark_registry () =
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "OMP%d described" id)
        true
        (Remark.description id <> "Unknown remark."))
    [ 100; 110; 111; 112; 113; 120; 121; 130; 131; 132; 133; 150; 160; 170; 180 ];
  let r = Remark.make ~func:"f" 110 in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "render contains id" true (contains (Remark.to_string r) "OMP110")

(* ------------------------------------------------------------------ *)
(* Differential semantics: every optimization level preserves traces   *)
(* ------------------------------------------------------------------ *)

let differential_programs =
  [
    ("fig1", {|
double A[8];
static double compute(int x) { return (double)x * 2.0 + 1.0; }
static void combine(double* a, double* b) { a[0] = a[0] + b[0]; }
int main() {
  #pragma omp target teams distribute num_teams(2) thread_limit(4)
  for (int i = 0; i < 8; i++) {
    double team_val = compute(i);
    #pragma omp parallel for
    for (int j = 0; j < 4; j++) {
      double thread_val = compute(j);
      #pragma omp atomic
      team_val += thread_val;
    }
    A[i] = team_val;
  }
  for (int i = 0; i < 8; i++) { trace_f64(A[i]); }
  return 0;
}
|});
    ("reduction", {|
double Sum[1];
int main() {
  #pragma omp target teams distribute parallel for num_teams(2) thread_limit(4)
  for (int i = 0; i < 64; i++) {
    #pragma omp atomic
    Sum[0] += (double)(i % 7);
  }
  trace_f64(Sum[0]);
  return 0;
}
|});
    ("stencil", {|
double In[16];
double Out[16];
int main() {
  for (int i = 0; i < 16; i++) { In[i] = (double)(i * i % 11); }
  #pragma omp target teams distribute parallel for num_teams(2) thread_limit(4)
  for (int i = 1; i < 15; i++) {
    double window[3];
    window[0] = In[i - 1];
    window[1] = In[i];
    window[2] = In[i + 1];
    Out[i] = (window[0] + window[1] + window[2]) / 3.0;
  }
  double s = 0.0;
  for (int i = 0; i < 16; i++) { s += Out[i]; }
  trace_f64(s);
  return 0;
}
|});
    ("two-regions", {|
double A[4];
double B[4];
int main() {
  #pragma omp target teams distribute num_teams(1) thread_limit(4)
  for (int w = 0; w < 4; w++) {
    double stage = (double)(w + 1);
    #pragma omp parallel for
    for (int i = 0; i < 4; i++) {
      #pragma omp atomic
      A[i] += stage;
    }
    #pragma omp parallel for
    for (int i2 = 0; i2 < 4; i2++) {
      #pragma omp atomic
      B[i2] += A[i2] * 0.5;
    }
  }
  double s = 0.0;
  for (int i = 0; i < 4; i++) { s += A[i] + B[i]; }
  trace_f64(s);
  return 0;
}
|});
  ]

let differential_tests =
  List.map
    (fun (name, src) ->
      Alcotest.test_case ("differential: " ^ name) `Quick (fun () ->
          Helpers.assert_same_trace
            ~schemes:[ Frontend.Codegen.Simplified; Frontend.Codegen.Legacy ]
            ~pipelines:Helpers.all_opt_variants src))
    differential_programs

let suite =
  [
    Alcotest.test_case "heap-to-stack fires" `Quick test_heap_to_stack_fires;
    Alcotest.test_case "heap-to-stack remark" `Quick test_heap_to_stack_remark;
    Alcotest.test_case "heap-to-shared fires" `Quick test_heap_to_shared_fires;
    Alcotest.test_case "missed deglobalization remarks" `Quick
      test_deglobalization_missed_remark;
    Alcotest.test_case "ext_nocapture assumption" `Quick test_nocapture_assumption_enables_h2s;
    Alcotest.test_case "shared budget" `Quick test_shared_budget_respected;
    Alcotest.test_case "SPMDzation converts" `Quick test_spmdization_converts;
    Alcotest.test_case "SPMDzation blocked by external call" `Quick
      test_spmdization_blocked_by_external_call;
    Alcotest.test_case "ext_spmd_amenable unblocks" `Quick test_spmd_amenable_assumption_unblocks;
    Alcotest.test_case "guard grouping (Fig 7)" `Quick test_guard_grouping_reduces_barriers;
    Alcotest.test_case "broadcast of guarded values" `Quick test_broadcast_of_guarded_values;
    Alcotest.test_case "CSM rewrites" `Quick test_csm_rewrites;
    Alcotest.test_case "CSM fallback" `Quick test_csm_fallback_for_unknown_regions;
    Alcotest.test_case "CSM cascade over two regions" `Quick test_csm_multiple_regions_cascade;
    Alcotest.test_case "fold counts" `Quick test_fold_counts;
    Alcotest.test_case "no launch folds without clauses" `Quick
      test_no_launch_fold_without_clauses;
    Alcotest.test_case "fold tid in main-only code" `Quick test_fold_thread_id_main_only;
    Alcotest.test_case "internalization" `Quick test_internalization;
    Alcotest.test_case "simplify constant folding" `Quick test_simplify_constant_folding;
    Alcotest.test_case "simplify keeps side effects" `Quick test_simplify_keeps_side_effects;
    Alcotest.test_case "remark registry" `Quick test_remark_registry;
  ]
  @ differential_tests
