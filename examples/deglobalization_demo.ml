(* Deglobalization demo: the paper's Figure 4/5/6 scenario.

   A generic device function takes the addresses of two locals, so the
   front-end globalizes both.  Depending on the calling context, the
   middle-end either moves them back to the stack (HeapToStack), replaces
   them with static shared memory (HeapToShared), or must leave the runtime
   allocation in place and tells you why.

     dune exec examples/deglobalization_demo.exe *)

(* Figure 5b: device_function entered by the main thread of each team. *)
let one_thread_only =
  {|
double Out[4];
static void combine(double* arg, double* lcl) { lcl[0] = lcl[0] + arg[0]; }
static double device_function(double arg) {
  double lcl = 3.0;
  combine(&arg, &lcl);
  return lcl;
}
int main() {
  #pragma omp target teams num_teams(2) thread_limit(4)
  { Out[0] = device_function(39.0); }
  trace_f64(Out[0]);
  return 0;
}
|}

(* Figure 5c: the same function entered by many threads per team. *)
let many_threads =
  {|
double Out[8];
static void combine(double* arg, double* lcl) { lcl[0] = lcl[0] + arg[0]; }
static double device_function(double arg) {
  double lcl = 3.0;
  combine(&arg, &lcl);
  return lcl;
}
int main() {
  #pragma omp target teams distribute parallel for num_teams(2) thread_limit(4)
  for (int i = 0; i < 8; i++) { Out[i] = device_function((double)i); }
  double s = 0.0;
  for (int i = 0; i < 8; i++) { s += Out[i]; }
  trace_f64(s);
  return 0;
}
|}

(* An allocation whose pointer escapes into unknown code: nothing fires,
   the remarks point at the capture (Fig. 6b / OMP112-113). *)
let escaping =
  {|
extern void unknown(double* p);
double Out[1];
int main() {
  #pragma omp target teams num_teams(1) thread_limit(2)
  {
    double lcl = 1.0;
    unknown(&lcl);
    Out[0] = lcl;
  }
  return 0;
}
|}

let show title src =
  Fmt.pr "== %s ==@." title;
  let m = Frontend.Codegen.compile ~file:"demo.c" src in
  let report = Openmpopt.Pass_manager.run_pipeline m in
  Fmt.pr "  heap-to-stack: %d, heap-to-shared: %d@."
    report.Openmpopt.Pass_manager.heap_to_stack
    report.Openmpopt.Pass_manager.heap_to_shared;
  List.iter
    (fun r -> Fmt.pr "  %s@." (Openmpopt.Remark.to_string r))
    report.Openmpopt.Pass_manager.remarks;
  (match Ir.Verify.check m with Ok () -> () | Error e -> failwith e);
  let sim = Gpusim.Interp.create Gpusim.Machine.test_machine m in
  (try
     Gpusim.Interp.run_host sim;
     Fmt.pr "  result: %a@.@."
       (Fmt.list ~sep:Fmt.sp Gpusim.Rvalue.pp)
       (Gpusim.Interp.trace_values sim)
   with Gpusim.Rvalue.Sim_error msg -> Fmt.pr "  simulation: %s@.@." msg)

let () =
  show "Figure 5b: main-thread-only call site (heap-to-stack + heap-to-shared)"
    one_thread_only;
  show "Figure 5c: multi-threaded call site (heap-to-stack only)" many_threads;
  show "escaping pointer (globalization must stay; actionable remarks)" escaping
