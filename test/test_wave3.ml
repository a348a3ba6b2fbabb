(* Third wave: front-end corners, simulator isolation properties, and
   harness rendering details. *)

let run = Helpers.run_trace

(* ------------------------------------------------------------------ *)
(* Front-end corners                                                   *)
(* ------------------------------------------------------------------ *)

let test_while_in_kernel () =
  Helpers.assert_same_trace
    ~schemes:[ Frontend.Codegen.Simplified; Frontend.Codegen.Legacy ]
    ~pipelines:Helpers.all_opt_variants
    {|
long Out[8];
int main() {
  #pragma omp target teams distribute parallel for num_teams(2) thread_limit(4)
  for (int i = 0; i < 8; i++) {
    int x = i;
    int steps = 0;
    while (x > 1) {
      if (x % 2 == 0) { x = x / 2; } else { x = 3 * x + 1; }
      steps++;
    }
    Out[i] = steps;
  }
  for (int i = 0; i < 8; i++) { trace(Out[i]); }
  return 0;
}
|}

let test_clause_with_spaces () =
  let m =
    Helpers.compile
      {|
double A[4];
int main() {
  #pragma omp target teams distribute parallel for num_teams (3) thread_limit( 4 )
  for (int i = 0; i < 4; i++) { A[i] = 1.0; }
  return 0;
}
|}
  in
  match Ir.Irmod.kernels m with
  | [ k ] ->
    let info = Option.get k.Ir.Func.kernel in
    Alcotest.(check (option int)) "teams" (Some 3) info.Ir.Func.num_teams;
    Alcotest.(check (option int)) "threads" (Some 4) info.Ir.Func.num_threads
  | _ -> Alcotest.fail "one kernel expected"

let test_shadowing_scopes () =
  Alcotest.check Helpers.trace_testable "inner shadows outer"
    [ "i:1"; "i:2"; "i:99" ]
    (List.sort String.compare
       (run
          {|
int main() {
  int x = 1;
  {
    int x = 99;
    trace(x);
  }
  trace(x);
  x = x + 1;
  trace(x);
  return 0;
}
|}))

let test_pointer_walks () =
  Alcotest.check Helpers.trace_testable "pointer increments"
    [ "f:10"; "f:30" ]
    (run
       {|
double G[4];
int main() {
  G[0] = 10.0; G[1] = 20.0; G[2] = 30.0;
  double* p = G;
  trace_f64(*p);
  p = p + 2;
  trace_f64(*p);
  return 0;
}
|})

let test_multiple_kernels_one_program () =
  Alcotest.check Helpers.trace_testable "two kernels compose"
    [ "f:12" ]
    (run
       {|
double A[4];
int main() {
  #pragma omp target teams distribute parallel for num_teams(1) thread_limit(4)
  for (int i = 0; i < 4; i++) { A[i] = (double)i; }
  #pragma omp target teams distribute parallel for num_teams(1) thread_limit(4)
  for (int i = 0; i < 4; i++) { A[i] = A[i] * 2.0; }
  double s = 0.0;
  for (int i = 0; i < 4; i++) { s += A[i]; }
  trace_f64(s);
  return 0;
}
|});
  let m =
    Helpers.compile
      {|
double A[2];
int main() {
  #pragma omp target teams num_teams(1) thread_limit(2)
  { A[0] = 1.0; }
  #pragma omp target teams num_teams(1) thread_limit(2)
  { A[1] = 2.0; }
  return 0;
}
|}
  in
  Alcotest.(check int) "two kernel functions" 2 (List.length (Ir.Irmod.kernels m))

let test_capture_written_scalar_shared_semantics () =
  (* a scalar captured by a (non-combined) parallel region is shared: the
     region's writes are visible after *)
  Alcotest.check Helpers.trace_testable "shared capture write-back"
    [ "f:4" ]
    (run
       {|
double Out[1];
int main() {
  #pragma omp target teams num_teams(1) thread_limit(4)
  {
    double acc = 0.0;
    #pragma omp parallel
    {
      #pragma omp atomic
      acc += 1.0;
    }
    Out[0] = acc;
  }
  trace_f64(Out[0]);
  return 0;
}
|})

let test_combined_firstprivate_semantics () =
  (* in the combined construct scalars are firstprivate: writes inside the
     region do not leak back *)
  Alcotest.check Helpers.trace_testable "firstprivate copy"
    [ "f:5" ]
    (run
       {|
double Out[4];
int main() {
  double seed = 5.0;
  #pragma omp target teams distribute parallel for num_teams(1) thread_limit(4)
  for (int i = 0; i < 4; i++) {
    seed = seed + 100.0;   // modifies the thread's private copy only
    Out[i] = seed;
  }
  trace_f64(5.0);  // host copy untouched by the device (by-value capture)
  return 0;
}
|})

let test_extern_decl_callable_check () =
  (* calling a declared-but-undefined function traps at simulation time *)
  let m =
    Helpers.compile
      {|
extern double mystery(double x);
int main() {
  trace_f64(mystery(1.0));
  return 0;
}
|}
  in
  match Helpers.simulate m with
  | exception Gpusim.Rvalue.Sim_error _ -> ()
  | _ -> Alcotest.fail "expected a trap on an external call"

(* ------------------------------------------------------------------ *)
(* Simulator isolation properties                                      *)
(* ------------------------------------------------------------------ *)

let test_team_shared_isolation () =
  (* HeapToShared globals are per-team: two teams accumulating into the same
     "shared" variable never interfere *)
  let src =
    {|
double Out[2];
int main() {
  #pragma omp target teams distribute num_teams(2) thread_limit(4)
  for (int t = 0; t < 2; t++) {
    double team_acc = 0.0;
    #pragma omp parallel for
    for (int j = 0; j < 4; j++) {
      #pragma omp atomic
      team_acc += (double)(t + 1);
    }
    Out[t] = team_acc;
  }
  trace_f64(Out[0]);
  trace_f64(Out[1]);
  return 0;
}
|}
  in
  Alcotest.check Helpers.trace_testable "per-team accumulators"
    [ "f:4"; "f:8" ]
    (run ~pipeline:Openmpopt.Pass_manager.Pipeline.full src)

let test_occupancy_monotone () =
  let cycles regs =
    int_of_float
      (1000.0 *. Gpusim.Interp.occupancy_factor Gpusim.Machine.v100_like regs)
  in
  Alcotest.(check bool) "more registers, no faster" true
    (cycles 32 <= cycles 64 && cycles 64 <= cycles 128 && cycles 128 <= cycles 255)

let test_shared_stack_reuse_across_iterations () =
  (* per-iteration allocations are freed at scope end: the shared stack high
     water must not grow with the iteration count *)
  let sim_for n =
    let m =
      Helpers.compile
        (Printf.sprintf
           {|
double Out[4];
int main() {
  #pragma omp target teams num_teams(1) thread_limit(2)
  {
    for (int i = 0; i < %d; i++) {
      double v = (double)i;
      #pragma omp parallel
      {
        #pragma omp atomic
        Out[0] += v;
      }
    }
  }
  return 0;
}
|}
           n)
    in
    let sim = Helpers.simulate m in
    (List.hd sim.Gpusim.Interp.kernel_stats).Gpusim.Interp.shared_bytes
  in
  Alcotest.(check int) "shared high water independent of trip count" (sim_for 2)
    (sim_for 10)

let test_cuda_kernel_attr_lowers_init_cost () =
  let cycles scheme =
    let m =
      Frontend.Codegen.compile ~scheme ~file:"t.c"
        {|
double A[4];
int main() {
  #pragma omp target teams distribute parallel for num_teams(1) thread_limit(4)
  for (int i = 0; i < 4; i++) { A[i] = (double)i; }
  return 0;
}
|}
    in
    let sim = Helpers.simulate m in
    Gpusim.Interp.total_kernel_cycles sim
  in
  Alcotest.(check bool) "cuda launch cheaper than unoptimized OpenMP" true
    (cycles Frontend.Codegen.Cuda < cycles Frontend.Codegen.Simplified)

(* ------------------------------------------------------------------ *)
(* Harness details                                                     *)
(* ------------------------------------------------------------------ *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_fig10_renders_all_builds () =
  let out =
    Harness.Tables.fig10 ~machine:Gpusim.Machine.test_machine ~scale:Proxyapps.App.Tiny ()
  in
  List.iter
    (fun label -> Alcotest.(check bool) label true (contains out label))
    [ "CUDA (Clang Dev)"; "LLVM 12"; "LLVM Dev 0" ]

let test_ablations_render () =
  let out =
    Harness.Tables.ablations ~machine:Gpusim.Machine.test_machine
      ~scale:Proxyapps.App.Tiny ()
  in
  Alcotest.(check bool) "has grouping variant" true (contains out "no guard grouping");
  Alcotest.(check bool) "no errors" false (contains out "ERROR")

let test_runner_reports_compile_errors () =
  let broken : Proxyapps.App.t =
    {
      Proxyapps.App.name = "broken";
      description = "intentionally invalid";
      omp_source = (fun _ -> "int main( { }");
      cuda_source = (fun _ -> "int main( { }");
      expected_h2s = 0;
      expected_h2shared = 0;
      expected_spmdized = false;
    }
  in
  let m =
    Harness.Runner.run ~machine:Gpusim.Machine.test_machine ~scale:Proxyapps.App.Tiny
      broken Harness.Config.dev0
  in
  match m.Harness.Runner.outcome with
  | Harness.Runner.Err _ -> ()
  | _ -> Alcotest.fail "expected an Err outcome"

let suite =
  [
    Alcotest.test_case "while in kernel (collatz)" `Quick test_while_in_kernel;
    Alcotest.test_case "clauses with spaces" `Quick test_clause_with_spaces;
    Alcotest.test_case "shadowing scopes" `Quick test_shadowing_scopes;
    Alcotest.test_case "pointer walks" `Quick test_pointer_walks;
    Alcotest.test_case "multiple kernels" `Quick test_multiple_kernels_one_program;
    Alcotest.test_case "shared capture semantics" `Quick
      test_capture_written_scalar_shared_semantics;
    Alcotest.test_case "combined firstprivate semantics" `Quick
      test_combined_firstprivate_semantics;
    Alcotest.test_case "external call traps" `Quick test_extern_decl_callable_check;
    Alcotest.test_case "team shared isolation" `Quick test_team_shared_isolation;
    Alcotest.test_case "occupancy monotone" `Quick test_occupancy_monotone;
    Alcotest.test_case "shared stack reuse" `Quick test_shared_stack_reuse_across_iterations;
    Alcotest.test_case "cuda init cost" `Quick test_cuda_kernel_attr_lowers_init_cost;
    Alcotest.test_case "fig10 renders" `Slow test_fig10_renders_all_builds;
    Alcotest.test_case "ablations render" `Slow test_ablations_render;
    Alcotest.test_case "runner reports errors" `Quick test_runner_reports_compile_errors;
  ]

(* ------------------------------------------------------------------ *)
(* Wave 3b: extra corners                                              *)
(* ------------------------------------------------------------------ *)

let test_ternary_on_device () =
  Helpers.assert_same_trace
    ~schemes:[ Frontend.Codegen.Simplified; Frontend.Codegen.Legacy ]
    ~pipelines:Helpers.all_opt_variants
    {|
long Out[8];
int main() {
  #pragma omp target teams distribute parallel for num_teams(2) thread_limit(4)
  for (int i = 0; i < 8; i++) {
    Out[i] = i % 2 == 0 ? i * 10 : i + 100;
  }
  for (int i = 0; i < 8; i++) { trace(Out[i]); }
  return 0;
}
|}

let test_hex_float_roundtrip () =
  (* the printer emits %h hex floats; the parser must read them exactly *)
  let values = [ 0.1; -0.0; 1e-300; 1.7976931348623157e308; 3.14159265358979 ] in
  List.iter
    (fun v ->
      let m = Ir.Irmod.create () in
      let f = Ir.Func.make "f" ~ret_ty:Ir.Types.F64 ~params:[] in
      Ir.Irmod.add_func m f;
      let b = Ir.Builder.create f in
      Ir.Builder.position_at_end b (Ir.Builder.new_block b "entry");
      let x = Ir.Builder.bin b Ir.Instr.Fadd Ir.Types.F64 (Ir.Value.f64 v) (Ir.Value.f64 0.0) in
      Ir.Builder.ret b (Some x);
      let m2 = Ir.Parser.parse_module (Ir.Printer.module_to_string m) in
      let f2 = Ir.Irmod.find_func_exn m2 "f" in
      let found = ref false in
      Ir.Func.iter_instrs f2 ~g:(fun _ i ->
          match i.Ir.Instr.kind with
          | Ir.Instr.Bin (_, _, Ir.Value.Const (Ir.Value.CFloat (_, v')), _) ->
            if Int64.bits_of_float v' = Int64.bits_of_float v then found := true
          | _ -> ());
      Alcotest.(check bool) (Printf.sprintf "float %h preserved bit-exactly" v) true !found)
    values

let test_escape_through_select () =
  let m =
    Ir.Parser.parse_module
      {|module "sel"
declare ptr(generic) @__kmpc_alloc_shared(i64)
declare void @__kmpc_free_shared(ptr(generic), i64)
global external @leak : ptr(generic) in global = zeroinit
define internal void @f(%arg0 : i1) {
entry:
  %0 = call ptr(generic) @__kmpc_alloc_shared(i64 8)
  %1 = select ptr(generic) %arg0, %0, null(generic)
  store ptr(generic) %1, @leak
  call void @__kmpc_free_shared(%0, i64 8)
  ret
}
|}
  in
  let ctx = Analysis.Escape.create m in
  let f = Ir.Irmod.find_func_exn m "f" in
  let alloc =
    Option.get
      (Ir.Func.fold_instrs f ~init:None ~g:(fun acc _ i ->
           match i.Ir.Instr.kind with
           | Ir.Instr.Call (_, Ir.Instr.Direct "__kmpc_alloc_shared", _) -> Some i
           | _ -> acc))
  in
  Alcotest.(check bool) "select-derived pointer escapes" false
    (Analysis.Escape.is_no_escape (Analysis.Escape.pointer_escapes ctx f alloc))

let test_legacy_generic_kernel_pushes_directly () =
  (* in a statically-generic kernel main, legacy pushes without a mode check *)
  let m =
    Frontend.Codegen.compile ~scheme:Frontend.Codegen.Legacy ~file:"t.c"
      {|
double Out[2];
int main() {
  #pragma omp target teams num_teams(1) thread_limit(2)
  {
    double v = 1.0;
    #pragma omp parallel
    {
      #pragma omp atomic
      v += 1.0;
    }
    Out[0] = v;
  }
  return 0;
}
|}
  in
  let kernel = List.hd (Ir.Irmod.kernels m) in
  let count name =
    Ir.Func.fold_instrs kernel ~init:0 ~g:(fun acc _ i ->
        if Ir.Instr.callee_name i = Some name then acc + 1 else acc)
  in
  Alcotest.(check bool) "push present in kernel main" true
    (count "__kmpc_data_sharing_push_stack" >= 1);
  Alcotest.(check int) "no mode check in statically generic code" 0
    (count "__kmpc_data_sharing_mode_check")

let test_fig10_shape_generic_apps () =
  (* LLVM 12 uses more registers and shared memory than Dev on the
     generic-mode apps (Figure 10's qualitative shape) *)
  let machine = Gpusim.Machine.test_machine in
  let scale = Proxyapps.App.Tiny in
  List.iter
    (fun name ->
      let app = Proxyapps.Apps.find_exn name in
      let get cfg =
        match (Harness.Runner.run ~machine ~scale app cfg).Harness.Runner.outcome with
        | Harness.Runner.Ok x -> x
        | _ -> Alcotest.failf "%s should run" name
      in
      let legacy = get Harness.Config.llvm12 in
      let dev = get Harness.Config.dev0 in
      Alcotest.(check bool) (name ^ ": legacy regs >= dev regs") true
        (legacy.Harness.Runner.registers >= dev.Harness.Runner.registers);
      Alcotest.(check bool) (name ^ ": legacy cycles > dev cycles") true
        (legacy.Harness.Runner.cycles > dev.Harness.Runner.cycles))
    [ "su3bench"; "miniqmc" ]

let test_local_stack_overflow_traps () =
  (* the cuda scheme keeps arrays on the thread stack, so deep recursion
     exhausts the per-thread local arena *)
  let m =
    Helpers.compile ~scheme:Frontend.Codegen.Cuda
      {|
static double deep(int n) {
  double buf[512];
  buf[0] = (double)n;
  if (n <= 0) { return buf[0]; }
  return deep(n - 1) + buf[0];
}
int main() {
  trace_f64(deep(100));
  return 0;
}
|}
  in
  let tiny_stack =
    { Gpusim.Machine.test_machine with Gpusim.Machine.local_bytes_per_thread = 16 * 1024 }
  in
  match Helpers.simulate ~machine:tiny_stack m with
  | exception Gpusim.Rvalue.Sim_error _ -> ()
  | _ -> Alcotest.fail "expected a local stack overflow trap"

let suite =
  suite
  @ [
      Alcotest.test_case "ternary on device" `Quick test_ternary_on_device;
      Alcotest.test_case "hex float roundtrip" `Quick test_hex_float_roundtrip;
      Alcotest.test_case "escape through select" `Quick test_escape_through_select;
      Alcotest.test_case "legacy generic pushes directly" `Quick
        test_legacy_generic_kernel_pushes_directly;
      Alcotest.test_case "fig10 shape on generic apps" `Slow test_fig10_shape_generic_apps;
      Alcotest.test_case "local stack overflow traps" `Quick test_local_stack_overflow_traps;
    ]
