(* Using the library below the front end: build MiniIR directly with the
   Builder API, run the inter-procedural analyses, and query their results —
   the workflow of someone prototyping a new OpenMP-aware optimization.

     dune exec examples/custom_analysis.exe *)

open Ir

(* Build:  define device_function(arg):
             lcl = alloc_shared 8
             combine(&arg-copy, lcl)
             free_shared lcl
   plus a kernel that calls it from the main thread only — the paper's
   Figure 4a / 5b configuration, written at the IR level. *)
let build_module () =
  let m = Irmod.create ~name:"custom" () in
  Devrt.Registry.declare_in m;
  let gptr = Types.Ptr Types.Generic in

  (* combine(a, b): *b += *a *)
  let combine =
    Func.make "combine" ~ret_ty:Types.Void ~params:[ ("a", gptr); ("b", gptr) ]
  in
  Irmod.add_func m combine;
  let b = Builder.create combine in
  Builder.position_at_end b (Builder.new_block b "entry");
  let av = Builder.load b Types.F64 (Value.Arg 0) in
  let bv = Builder.load b Types.F64 (Value.Arg 1) in
  let sum = Builder.bin b Instr.Fadd Types.F64 av bv in
  Builder.store b Types.F64 sum (Value.Arg 1);
  Builder.ret b None;

  (* device_function(x): globalized local + call *)
  let device_fn =
    Func.make "device_function" ~ret_ty:Types.F64 ~params:[ ("x", Types.F64) ]
  in
  Irmod.add_func m device_fn;
  let b = Builder.create device_fn in
  Builder.position_at_end b (Builder.new_block b "entry");
  let arg_slot = Builder.call b gptr "__kmpc_alloc_shared" [ Value.i64 8 ] in
  Builder.store b Types.F64 (Value.Arg 0) arg_slot;
  let lcl_slot = Builder.call b gptr "__kmpc_alloc_shared" [ Value.i64 8 ] in
  Builder.store b Types.F64 (Value.f64 1.5) lcl_slot;
  ignore (Builder.call b Types.Void "combine" [ arg_slot; lcl_slot ]);
  let result = Builder.load b Types.F64 lcl_slot in
  ignore (Builder.call b Types.Void "__kmpc_free_shared" [ lcl_slot; Value.i64 8 ]);
  ignore (Builder.call b Types.Void "__kmpc_free_shared" [ arg_slot; Value.i64 8 ]);
  Builder.ret b (Some result);

  (* a generic-mode kernel calling it from the main thread *)
  let kernel =
    Func.make ~linkage:Func.External "kernel" ~ret_ty:Types.Void ~params:[]
      ~kernel:{ Func.exec_mode = Func.Generic; num_teams = Some 2; num_threads = Some 4 }
  in
  Irmod.add_func m kernel;
  let b = Builder.create kernel in
  let entry = Builder.new_block b "entry" in
  let worker = Builder.new_block b "worker" in
  let main_bb = Builder.new_block b "main" in
  Builder.position_at_end b entry;
  let r = Builder.call b Types.I32 "__kmpc_target_init" [ Value.i32 0 ] in
  let is_main = Builder.icmp b Instr.Eq Types.I32 r (Value.i32 (-1)) in
  Builder.cbr b is_main main_bb.Block.label worker.Block.label;
  Builder.position_at_end b worker;
  Builder.ret b None;
  Builder.position_at_end b main_bb;
  ignore (Builder.call b Types.F64 "device_function" [ Value.f64 2.5 ]);
  ignore (Builder.call b Types.Void "__kmpc_target_deinit" [ Value.i32 0 ]);
  Builder.ret b None;
  m

let () =
  let m = build_module () in
  (match Verify.check m with Ok () -> () | Error e -> failwith e);
  Fmt.pr "== module ==@.%a@." Printer.pp_module m;

  (* run the analyses the optimizer is built from *)
  let cg = Analysis.Callgraph.compute m in
  let domains = Analysis.Exec_domain.compute m cg in
  Fmt.pr "== execution domains ==@.";
  List.iter
    (fun f ->
      Fmt.pr "  %-18s %a@." f.Func.name Analysis.Exec_domain.pp_domain
        (Analysis.Exec_domain.func_domain domains f.Func.name))
    (Irmod.defined_funcs m);

  Fmt.pr "@.== escape analysis on the two allocations ==@.";
  let ctx = Analysis.Escape.create m in
  let device_fn = Irmod.find_func_exn m "device_function" in
  Func.iter_instrs device_fn ~g:(fun _ i ->
      match i.Instr.kind with
      | Instr.Call (_, Instr.Direct "__kmpc_alloc_shared", _) ->
        let verdict = Analysis.Escape.pointer_escapes ctx device_fn i in
        let freed =
          Analysis.Escape.free_always_reached device_fn ~alloc:i
            ~free_name:"__kmpc_free_shared"
        in
        Fmt.pr "  %%%d: %s, free %s@." i.Instr.id
          (match verdict with
          | Analysis.Escape.No_escape -> "does not escape"
          | Analysis.Escape.Escapes why -> "escapes (" ^ why ^ ")")
          (if freed then "always reached" else "may be skipped")
      | _ -> ());

  Fmt.pr "@.== after the OpenMPOpt pipeline ==@.";
  let report = Openmpopt.Pass_manager.run_pipeline m in
  Fmt.pr "  %a@." Openmpopt.Pass_manager.pp_report report;
  (match Verify.check m with Ok () -> () | Error e -> failwith e);
  Fmt.pr "@.%a@." Printer.pp_func (Irmod.find_func_exn m "device_function")
