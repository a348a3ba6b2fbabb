(* Simulator semantics: memory spaces, synchronization, the worker state
   machine, heap accounting, and the cost/statistics machinery. *)

let run ?machine src =
  let m = Helpers.compile src in
  Helpers.verify m;
  Helpers.simulate ?machine m

let stats_of sim =
  match sim.Gpusim.Interp.kernel_stats with
  | s :: _ -> s
  | [] -> Alcotest.fail "no kernel launched"

let test_launch_dimensions () =
  let sim =
    run
      {|
double A[8];
int main() {
  #pragma omp target teams distribute parallel for num_teams(3) thread_limit(5)
  for (int i = 0; i < 8; i++) { A[i] = 1.0; }
  return 0;
}
|}
  in
  let s = stats_of sim in
  Alcotest.(check int) "teams" 3 s.Gpusim.Interp.teams;
  Alcotest.(check int) "threads" 5 s.Gpusim.Interp.threads_per_team;
  Alcotest.(check bool) "cycles positive" true (s.Gpusim.Interp.cycles > 0);
  Alcotest.(check bool) "instructions counted" true (s.Gpusim.Interp.instructions > 0)

let test_default_launch_dimensions () =
  let sim =
    run
      {|
double A[8];
int main() {
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < 8; i++) { A[i] = 1.0; }
  return 0;
}
|}
  in
  let s = stats_of sim in
  let mach = Gpusim.Machine.test_machine in
  Alcotest.(check int) "default teams" mach.Gpusim.Machine.default_teams s.Gpusim.Interp.teams;
  Alcotest.(check int) "default threads" mach.Gpusim.Machine.default_threads
    s.Gpusim.Interp.threads_per_team

let test_cyclic_distribution_covers_all () =
  (* every iteration executed exactly once across teams x threads *)
  let sim =
    run
      {|
double A[37];
int main() {
  #pragma omp target teams distribute parallel for num_teams(3) thread_limit(4)
  for (int i = 0; i < 37; i++) {
    #pragma omp atomic
    A[i] += 1.0;
  }
  double bad = 0.0;
  for (int i = 0; i < 37; i++) { if (A[i] != 1.0) { bad += 1.0; } }
  trace_f64(bad);
  return 0;
}
|}
  in
  Alcotest.(check bool) "each iteration once" true
    (Gpusim.Interp.trace_values sim = [ Gpusim.Rvalue.F 0.0 ])

let test_atomics_race_free () =
  let sim =
    run
      {|
double Sum[1];
int main() {
  #pragma omp target teams distribute parallel for num_teams(2) thread_limit(8)
  for (int i = 1; i <= 100; i++) {
    #pragma omp atomic
    Sum[0] += (double)i;
  }
  trace_f64(Sum[0]);
  return 0;
}
|}
  in
  Alcotest.(check bool) "gauss sum" true
    (Gpusim.Interp.trace_values sim = [ Gpusim.Rvalue.F 5050.0 ])

let test_cross_thread_local_detected () =
  (* the Figure 3 soundness scenario: without globalization (cuda scheme),
     cross-thread accesses hit the wrong thread's local memory *)
  let src =
    {|
int Ptr[4];
int main() {
  #pragma omp target teams distribute parallel for num_teams(1) thread_limit(4)
  for (int i = 0; i < 4; i++) {
    int Lcl = 42 + i;
    int* p = &Lcl;
    if (i == 3) { Ptr[0] = p[0]; }
    #pragma omp barrier
    Ptr[i] = p[0];
  }
  return 0;
}
|}
  in
  let m = Helpers.compile ~scheme:Frontend.Codegen.Cuda src in
  let sim = Helpers.simulate m in
  Alcotest.(check bool) "no cross-local accesses in private version" true
    (sim.Gpusim.Interp.mem.Gpusim.Mem.cross_local_accesses = 0)

let test_fig3_legacy_unsound_vs_simplified () =
  (* the exact Figure 3 program: all threads must observe thread 0's 42 *)
  let src =
    {|
int* Ptr;
int main() {
  #pragma omp target teams distribute parallel for num_teams(1) thread_limit(4)
  for (int i = 0; i < 4; i++) {
    int Lcl = 42 + i;
    if (i == 0) { Ptr = &Lcl; }
    #pragma omp barrier
    trace(Ptr[0]);
    #pragma omp barrier
  }
  return 0;
}
|}
  in
  Alcotest.check Helpers.trace_testable "simplified globalization is sound"
    [ "i:42"; "i:42"; "i:42"; "i:42" ]
    (Helpers.run_trace src);
  let legacy = Helpers.run_trace ~scheme:Frontend.Codegen.Legacy src in
  Alcotest.(check bool) "legacy SPMD fast path miscompiles (Fig. 3)" true
    (legacy <> [ "i:42"; "i:42"; "i:42"; "i:42" ])

let test_generic_mode_worker_state_machine () =
  let sim =
    run
      {|
double A[4];
int main() {
  #pragma omp target teams num_teams(1) thread_limit(4)
  {
    #pragma omp parallel
    {
      int t = omp_get_thread_num();
      A[t] = (double)(t * t);
    }
  }
  for (int i = 0; i < 4; i++) { trace_f64(A[i]); }
  return 0;
}
|}
  in
  let values =
    List.map (fun v -> Gpusim.Rvalue.as_float v) (Gpusim.Interp.trace_values sim)
  in
  Alcotest.(check (list (float 1e-9))) "all workers participated" [ 0.; 1.; 4.; 9. ] values;
  let s = stats_of sim in
  Alcotest.(check bool) "indirect dispatch used" true (s.Gpusim.Interp.indirect_calls > 0)

let test_num_threads_clause_limits_region () =
  let sim =
    run
      {|
double A[8];
int main() {
  #pragma omp target teams num_teams(1) thread_limit(8)
  {
    #pragma omp parallel num_threads(3)
    {
      int t = omp_get_thread_num();
      A[t] = A[t] + 1.0;
    }
  }
  double s = 0.0;
  for (int i = 0; i < 8; i++) { s += A[i]; }
  trace_f64(s);
  return 0;
}
|}
  in
  Alcotest.(check bool) "only 3 threads ran the region" true
    (Gpusim.Interp.trace_values sim = [ Gpusim.Rvalue.F 3.0 ])

let test_heap_accounting_and_oom () =
  (* per-thread allocations in a parallel context are charged against the
     device heap with concurrency scaling *)
  let src =
    {|
double Out[16];
int main() {
  #pragma omp target teams distribute parallel for num_teams(4) thread_limit(8)
  for (int i = 0; i < 32; i++) {
    double big[64];
    for (int k = 0; k < 64; k++) { big[k] = (double)k; }
    Out[i % 16] = big[63];
  }
  return 0;
}
|}
  in
  let m = Helpers.compile src in
  (* generous heap: runs fine and reports a high-water mark *)
  let sim = Helpers.simulate m in
  let s = stats_of sim in
  Alcotest.(check bool) "high water recorded" true (s.Gpusim.Interp.heap_high_water > 0);
  (* tiny heap: out of memory *)
  let tiny =
    { Gpusim.Machine.test_machine with Gpusim.Machine.heap_bytes = 4 * 1024 }
  in
  let m2 = Helpers.compile src in
  (match Helpers.simulate ~machine:tiny m2 with
  | exception Gpusim.Mem.Out_of_memory _ -> ()
  | _ -> Alcotest.fail "expected OOM with a tiny device heap")

let test_shared_memory_stats () =
  let sim =
    run
      {|
double A[4];
int main() {
  #pragma omp target teams distribute num_teams(1) thread_limit(4)
  for (int i = 0; i < 4; i++) {
    double v = (double)i;   // globalized: captured by the region below
    #pragma omp parallel for
    for (int j = 0; j < 2; j++) {
      #pragma omp atomic
      v += 1.0;
    }
    A[i] = v;
  }
  return 0;
}
|}
  in
  let s = stats_of sim in
  Alcotest.(check bool) "team shared stack used" true (s.Gpusim.Interp.shared_bytes > 0)

let test_register_estimate_monotone () =
  (* indirect calls in the worker loop inflate the register estimate *)
  let generic =
    Helpers.compile
      {|
double A[4];
int main() {
  #pragma omp target teams num_teams(1) thread_limit(2)
  {
    #pragma omp parallel
    { A[omp_get_thread_num()] = 1.0; }
  }
  return 0;
}
|}
  in
  let kernel = List.hd (Ir.Irmod.kernels generic) in
  let regs_before = Gpusim.Regalloc.estimate generic kernel in
  ignore (Helpers.optimize generic);
  let regs_after = Gpusim.Regalloc.estimate generic kernel in
  Alcotest.(check bool) "optimization does not increase the estimate" true
    (regs_after <= regs_before)

let test_fuel_guards_infinite_loops () =
  let m =
    Helpers.compile
      {|
int main() {
  int x = 1;
  while (x) { x = 1; }
  return 0;
}
|}
  in
  let sim = Gpusim.Interp.create ~fuel:10_000 Gpusim.Machine.test_machine m in
  match Gpusim.Interp.run_host sim with
  | exception
      Fault.Ompgpu_error.Error { Fault.Ompgpu_error.kind = Fault.Ompgpu_error.Timeout _; _ }
    -> ()
  | _ -> Alcotest.fail "expected fuel exhaustion"

let test_determinism () =
  let src =
    {|
double A[16];
int main() {
  #pragma omp target teams distribute num_teams(2) thread_limit(4)
  for (int i = 0; i < 16; i++) {
    double v = (double)i;
    #pragma omp parallel for
    for (int j = 0; j < 4; j++) {
      #pragma omp atomic
      v += 0.25;
    }
    A[i] = v;
  }
  double s = 0.0;
  for (int i = 0; i < 16; i++) { s += A[i]; }
  trace_f64(s);
  return 0;
}
|}
  in
  let c1 = (stats_of (run src)).Gpusim.Interp.cycles in
  let c2 = (stats_of (run src)).Gpusim.Interp.cycles in
  Alcotest.(check int) "cycle counts are deterministic" c1 c2

let test_mem_encode_decode () =
  let open Gpusim.Rvalue in
  let roundtrip p =
    let p' = Gpusim.Mem.decode_ptr (Gpusim.Mem.encode_ptr p) in
    Alcotest.(check bool) "ptr roundtrip" true (p = p')
  in
  roundtrip { sp = Sglobal; addr = 0 };
  roundtrip { sp = Sglobal; addr = 123456 };
  roundtrip { sp = Sshared 17; addr = 40 };
  roundtrip { sp = Slocal 0; addr = 8 };
  roundtrip { sp = Slocal 999; addr = 65536 }

let test_typed_memory_roundtrip () =
  let mem = Gpusim.Mem.create Gpusim.Machine.test_machine in
  let open Gpusim.Rvalue in
  let p = { sp = Sglobal; addr = 64 } in
  Gpusim.Mem.write mem ~current:0 p Ir.Types.F64 (F 3.25);
  (match Gpusim.Mem.read mem ~current:0 p Ir.Types.F64 with
  | F v -> Alcotest.(check (float 0.0)) "f64" 3.25 v
  | _ -> Alcotest.fail "f64 readback");
  Gpusim.Mem.write mem ~current:0 p Ir.Types.I32 (I (-7L));
  (match Gpusim.Mem.read mem ~current:0 p Ir.Types.I32 with
  | I v -> Alcotest.(check int64) "i32 sign extended" (-7L) v
  | _ -> Alcotest.fail "i32 readback");
  Gpusim.Mem.write mem ~current:0 p Ir.Types.I8 (I 200L);
  (match Gpusim.Mem.read mem ~current:0 p Ir.Types.I8 with
  | I v -> Alcotest.(check int64) "i8 wraps signed" (-56L) v
  | _ -> Alcotest.fail "i8 readback");
  Gpusim.Mem.write mem ~current:0 p (Ir.Types.Ptr Ir.Types.Generic)
    (P { sp = Sshared 3; addr = 16 });
  match Gpusim.Mem.read mem ~current:0 p (Ir.Types.Ptr Ir.Types.Generic) with
  | P { sp = Sshared 3; addr = 16 } -> ()
  | _ -> Alcotest.fail "pointer readback"

let test_f32_rounding () =
  Alcotest.check Helpers.trace_testable "f32 arithmetic is single precision"
    [ "f:0.100000001" ]
    (Helpers.run_trace
       {|
int main() {
  float x = 0.1;
  trace_f64((double)x);
  return 0;
}
|})

let test_out_of_bounds_trapped () =
  let m =
    Helpers.compile
      {|
double A[4];
int main() {
  double* p = A;
  trace_f64(p[100000000]);
  return 0;
}
|}
  in
  match Helpers.simulate m with
  | exception Gpusim.Rvalue.Sim_error _ -> ()
  | _ -> Alcotest.fail "expected out-of-bounds trap"

let qcheck_encode =
  Helpers.qtest "pointer encode/decode"
    QCheck.(pair (int_bound 100000) (int_bound 4000))
    (fun (addr, owner) ->
      let open Gpusim.Rvalue in
      List.for_all
        (fun p -> Gpusim.Mem.decode_ptr (Gpusim.Mem.encode_ptr p) = p)
        [ { sp = Sglobal; addr }; { sp = Sshared owner; addr }; { sp = Slocal owner; addr } ])

(* The simulated-memory contract, seen only through [Mem.create], [read],
   [write] and [heap_alloc] on the bench machine: in-range bytes nobody
   wrote read zero (in every space, at both ends of every arena and in the
   gap between the module globals and the heap), a heap block keeps what is
   written to it, a cross-thread local access uses the accessing thread's
   own frame and is counted, and an out-of-bounds access fails naming the
   machine's full arena size. *)
let test_memory_semantics () =
  let open Gpusim.Rvalue in
  let machine = Gpusim.Machine.bench_machine in
  let mem = Gpusim.Mem.create machine in
  let global_bytes = machine.Gpusim.Machine.global_bytes in
  let heap_base = global_bytes - machine.Gpusim.Machine.heap_bytes in
  let shared_bytes = machine.Gpusim.Machine.shared_bytes_per_team in
  let local_bytes = machine.Gpusim.Machine.local_bytes_per_thread in
  let read ?(current = 0) sp addr =
    match Gpusim.Mem.read mem ~current { sp; addr } Ir.Types.I64 with
    | I v -> v
    | v -> Alcotest.failf "i64 load returned %a" pp v
  in
  let write ?(current = 0) sp addr v =
    Gpusim.Mem.write mem ~current { sp; addr } Ir.Types.I64 (I v)
  in
  let zero what sp addr = Alcotest.(check int64) what 0L (read sp addr) in
  zero "global 0" Sglobal 0;
  zero "gap below the heap" Sglobal (heap_base - 8);
  zero "last global word" Sglobal (global_bytes - 8);
  zero "last shared word" (Sshared 3) (shared_bytes - 8);
  zero "last local word" (Slocal 5) (local_bytes - 8);
  (* bytes written near an arena's start survive a touch of its end *)
  write (Sshared 4) 8 11L;
  zero "shared after a low write" (Sshared 4) (shared_bytes - 8);
  Alcotest.(check int64) "shared low write kept" 11L (read (Sshared 4) 8);
  let blk, granted = Gpusim.Mem.heap_alloc mem 24 in
  Alcotest.(check int) "granted size" 24 granted;
  write blk.sp blk.addr 7L;
  write blk.sp (blk.addr + 16) (-3L);
  Alcotest.(check int64) "heap word 0" 7L (read blk.sp blk.addr);
  Alcotest.(check int64) "heap word 2" (-3L) (read blk.sp (blk.addr + 16));
  Alcotest.(check int64) "heap word 1 untouched" 0L (read blk.sp (blk.addr + 8));
  (* thread 6 dereferencing thread 5's local pointer reaches its own frame *)
  write ~current:5 (Slocal 5) 16 0x1111L;
  write ~current:6 (Slocal 6) 16 0x2222L;
  let cross () = mem.Gpusim.Mem.cross_local_accesses in
  let before = cross () in
  Alcotest.(check int64) "cross-thread load reads the reader's frame" 0x2222L
    (read ~current:6 (Slocal 5) 16);
  Alcotest.(check int) "cross-thread load counted" (before + 1) (cross ());
  write ~current:6 (Slocal 5) 24 0x3333L;
  Alcotest.(check int) "cross-thread store counted" (before + 2) (cross ());
  Alcotest.(check int64) "cross-thread store wrote the writer's frame" 0x3333L
    (read ~current:6 (Slocal 6) 24);
  Alcotest.(check int64) "owner's frame untouched" 0L (read ~current:5 (Slocal 5) 24);
  Alcotest.(check int64) "owner's word kept" 0x1111L (read ~current:5 (Slocal 5) 16);
  let fails what expected f =
    match f () with
    | exception Sim_error msg -> Alcotest.(check string) what expected msg
    | _ -> Alcotest.failf "%s: access succeeded" what
  in
  let load sp addr () = ignore (read sp addr) and store sp addr () = write sp addr 1L in
  List.iter
    (fun (what, access, expected) -> fails what expected access)
    [
      ("global load", load Sglobal (global_bytes - 4), "out-of-bounds load at offset 16777212 (size 8, arena 16777216)");
      ("global store", store Sglobal (global_bytes - 4), "out-of-bounds store at offset 16777212 (size 8, arena 16777216)");
      ("negative global load", load Sglobal (-8), "out-of-bounds load at offset -8 (size 8, arena 16777216)");
      ("shared load", load (Sshared 3) (shared_bytes - 4), "out-of-bounds load at offset 49148 (size 8, arena 49152)");
      ("shared store", store (Sshared 3) (shared_bytes - 4), "out-of-bounds store at offset 49148 (size 8, arena 49152)");
      ("local load", load (Slocal 5) (local_bytes - 4), "out-of-bounds load at offset 65532 (size 8, arena 65536)");
      ("local store", store (Slocal 5) (local_bytes - 4), "out-of-bounds store at offset 65532 (size 8, arena 65536)");
    ]

(* Simulated memory is paid for as it is used: a small corpus program run
   on the bench machine (16 MB of global memory, 48 KB of shared memory per
   team, 64 KB of local memory per thread) allocates well under 1 MB of
   major heap between [Interp.create] and the end of [run_host]. *)
let test_memory_follows_use () =
  let prog = Corpus.Gen.generate (Corpus.Gen.program_stream ~root:42L 0) in
  let m =
    Frontend.Codegen.compile ~scheme:Frontend.Codegen.Simplified ~file:"corpus.c"
      (Corpus.Gen.render ~mode:Corpus.Gen.Generic prog)
  in
  let before = (Gc.quick_stat ()).Gc.major_words in
  let sim = Gpusim.Interp.create Gpusim.Machine.bench_machine m in
  Gpusim.Interp.run_host sim;
  let mb = ((Gc.quick_stat ()).Gc.major_words -. before) *. 8. /. 1e6 in
  Printf.printf "major heap allocated: %.2f MB\n" mb;
  if mb >= 1.0 then
    Alcotest.failf "create + run_host allocated %.2f MB of major heap (budget 1 MB)" mb

(* Allocation budget of the simulator.  Minor words allocated by [run_host]
   per simulated kernel instruction are deterministic for a build, so they
   gate what wall time cannot: a per-instruction closure, a lookup tuple or
   a name resolution coming back into the hot loop shows up here. *)
let test_alloc_budget () =
  let words = ref 0. and instrs = ref 0 in
  List.iter
    (fun (app : Proxyapps.App.t) ->
      let m =
        Frontend.Codegen.compile ~scheme:Frontend.Codegen.Simplified
          ~file:(app.Proxyapps.App.name ^ ".c")
          (app.Proxyapps.App.omp_source Proxyapps.App.Tiny)
      in
      ignore (Openmpopt.Pass_manager.run_pipeline ~pipeline:Openmpopt.Pass_manager.Pipeline.full m);
      let sim = Gpusim.Interp.create Gpusim.Machine.bench_machine m in
      let before = Gc.minor_words () in
      Gpusim.Interp.run_host sim;
      let w = Gc.minor_words () -. before in
      let n =
        List.fold_left
          (fun acc (s : Gpusim.Interp.launch_stats) -> acc + s.Gpusim.Interp.instructions)
          0 sim.Gpusim.Interp.kernel_stats
      in
      Printf.printf "%s: %.0f words / %d instructions = %.2f\n" app.Proxyapps.App.name w n
        (w /. float_of_int n);
      words := !words +. w;
      instrs := !instrs + n)
    Proxyapps.Apps.all;
  let per_instr = !words /. float_of_int !instrs in
  Printf.printf "all four: %.2f words per instruction\n" per_instr;
  if per_instr > 8.0 then
    Alcotest.failf "simulator allocates %.2f minor words per instruction (budget 8.0)"
      per_instr

let suite =
  [
    Alcotest.test_case "launch dimensions" `Quick test_launch_dimensions;
    Alcotest.test_case "default launch dimensions" `Quick test_default_launch_dimensions;
    Alcotest.test_case "cyclic distribution coverage" `Quick
      test_cyclic_distribution_covers_all;
    Alcotest.test_case "atomics" `Quick test_atomics_race_free;
    Alcotest.test_case "private locals stay private" `Quick test_cross_thread_local_detected;
    Alcotest.test_case "Fig 3: legacy unsound, simplified sound" `Quick
      test_fig3_legacy_unsound_vs_simplified;
    Alcotest.test_case "worker state machine" `Quick test_generic_mode_worker_state_machine;
    Alcotest.test_case "num_threads clause" `Quick test_num_threads_clause_limits_region;
    Alcotest.test_case "heap accounting and OOM" `Quick test_heap_accounting_and_oom;
    Alcotest.test_case "shared memory stats" `Quick test_shared_memory_stats;
    Alcotest.test_case "register estimate monotone" `Quick test_register_estimate_monotone;
    Alcotest.test_case "fuel guard" `Quick test_fuel_guards_infinite_loops;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "allocation budget" `Quick test_alloc_budget;
    Alcotest.test_case "pointer encode/decode" `Quick test_mem_encode_decode;
    Alcotest.test_case "typed memory" `Quick test_typed_memory_roundtrip;
    Alcotest.test_case "f32 rounding" `Quick test_f32_rounding;
    Alcotest.test_case "bounds checking" `Quick test_out_of_bounds_trapped;
    Alcotest.test_case "memory semantics" `Quick test_memory_semantics;
    Alcotest.test_case "memory follows use" `Quick test_memory_follows_use;
    qcheck_encode;
  ]
