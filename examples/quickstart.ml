(* Quickstart: compile the paper's Figure 1 program, run the OpenMP-aware
   optimizer, and simulate it on the GPU model — the 30-second tour of the
   public API.

     dune exec examples/quickstart.exe *)

let figure1 =
  {|
double A[32];

static double compute(int x) { return (double)x * 2.0 + 1.0; }

int main() {
  int NBlocks = 32;
  int NThreads = 8;
  // The paper's Figure 1: a CPU-centric OpenMP offload region.  team_val is
  // shared between the team's threads, so the front-end must globalize it.
  #pragma omp target teams distribute num_teams(4) thread_limit(8)
  for (int block_id = 0; block_id < NBlocks; block_id++) {
    double team_val = compute(block_id);
    #pragma omp parallel for
    for (int thread_id = 0; thread_id < NThreads; thread_id++) {
      double thread_val = compute(thread_id);
      #pragma omp atomic
      team_val += thread_val;
    }
    A[block_id] = team_val;
  }
  double checksum = 0.0;
  for (int i = 0; i < NBlocks; i++) { checksum += A[i]; }
  trace_f64(checksum);
  return 0;
}
|}

let run_and_report label m =
  let sim = Gpusim.Interp.create Gpusim.Machine.test_machine m in
  Gpusim.Interp.run_host sim;
  let cycles = Gpusim.Interp.total_kernel_cycles sim in
  let regs = Gpusim.Interp.max_registers sim in
  Fmt.pr "%-12s %8d kernel cycles, %3d registers, checksum %a@." label cycles regs
    (Fmt.list Gpusim.Rvalue.pp)
    (Gpusim.Interp.trace_values sim);
  cycles

let () =
  Fmt.pr "== Quickstart: compile, optimize, simulate ==@.@.";
  (* 1. compile with the paper's simplified globalization (LLVM 13 style) *)
  let unoptimized = Frontend.Codegen.compile ~file:"figure1.c" figure1 in
  (match Ir.Verify.check unoptimized with
  | Ok () -> ()
  | Error e -> failwith e);
  let base = run_and_report "unoptimized" unoptimized in
  (* 2. the same program through the OpenMPOpt pipeline *)
  let optimized = Frontend.Codegen.compile ~file:"figure1.c" figure1 in
  let report = Openmpopt.Pass_manager.run_pipeline optimized in
  Fmt.pr "@.optimizer: %a@.@." Openmpopt.Pass_manager.pp_report report;
  let opt = run_and_report "optimized" optimized in
  Fmt.pr "@.speedup from OpenMP-aware optimization: %.2fx@."
    (float_of_int base /. float_of_int opt)
