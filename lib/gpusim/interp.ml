(* The SIMT interpreter.

   Threads are simulated with a run-to-block discipline: each thread executes
   until it finishes or blocks on a synchronization point (barrier, the
   worker state machine, or a parallel-region join), accumulating its own
   cycle clock.  Synchronization points align the clocks of the released
   threads to the maximum arrival time plus the synchronization cost, which
   yields a causally consistent timing model without lock-step emulation.

   The interpreter does not run MiniIR directly.  [create] decodes every
   function of the module once into a plan (below) that resolves every name
   up front, so the hot loop does no lookups and allocates only the values
   it produces.

   The device runtime's executable semantics (__kmpc_* interception) live
   here; its *static* semantics (what the optimizer may assume) live in
   [Devrt.Registry]. *)

open Ir
open Rvalue

(* All abnormal terminations raise [Fault.Ompgpu_error.Error] with a
   simulation-phase payload: [Sim_trap] for trap instructions and injected
   traps, [Timeout] for fuel exhaustion, [Deadlock] (with the offending
   barrier site) for true barrier divergence.  [Rvalue.Sim_error] still
   covers dynamic value errors; harness boundaries classify it. *)

let sim_error kind fmt = Fault.Ompgpu_error.raise_error kind ~phase:Fault.Ompgpu_error.Simulating fmt

type status =
  | Runnable
  | Wait_work  (* worker parked in the state machine *)
  | Wait_join  (* main thread waiting for workers to finish a region *)
  | In_barrier
  | Finished

type frame_kind =
  | Normal
  | Parallel_body_generic  (* main thread running the region it published *)
  | Parallel_body_spmd  (* SPMD-mode region body: implicit barrier on return *)
  | Parallel_body_nested

(* ------------------------------------------------------------------ *)
(* Decoded plans                                                       *)
(* ------------------------------------------------------------------ *)

(* A function's plan, decoded once per interpreter and shared by every
   frame of that function.  Its blocks sit in an array, in function order,
   and each runs its instructions by a pc, then its terminator.  Decoding
   never raises: an unknown global, a missing label or an unknown callee
   decodes to an operand, target or callee that raises its error only when
   it is executed, so a broken path that never runs stays harmless. *)

type operand =
  | Reg of int  (* register slot *)
  | Arg of int  (* argument index *)
  | Imm of Rvalue.t  (* a constant, a function, or a global-space global *)
  | Shared_global of int  (* offset in the running team's shared arena *)
  | Unknown_global of string

(* A branch target: the block's index in the plan, or -1 when no block has
   the label (the last block with a label is the one it names). *)
type target = { tblock : int; tlabel : string }

type callee =
  | Runtime of string  (* a device runtime function, interpreted natively *)
  | Defined of int  (* a module function: its index in [program.plans] *)
  | Unknown of string  (* raises when called *)
  | Indirect of operand  (* resolved by name when called *)

(* One instruction; the first int is its result register ([Call]: -1 when
   it has no result). *)
type op =
  | Alloca of int * int  (* bytes *)
  | Load of int * Types.t * operand
  | Store of Types.t * operand * operand  (* type, value, pointer *)
  | Gep of int * operand * operand
  | Bin of int * Instr.bin * Types.t * operand * operand
  | Icmp of int * Instr.icmp * Types.t * operand * operand
  | Fcmp of int * Instr.fcmp * operand * operand
  | Cast of int * Instr.cast * Types.t * operand
  | Select of int * operand * operand * operand
  | Atomicrmw of int * Instr.atomic * Types.t * operand * operand
  | Call of int * callee * operand list

type term =
  | Br of target
  | Cbr of operand * target * target
  | Switch of operand * (int64 * target) array * target  (* first match wins *)
  | Ret of operand option
  | Unreachable

type block = {
  code : op array;
  term : term;
  site : int;  (* dense per-interpreter block id: keys the divergence tables *)
  site_name : string;  (* "func/block", for barrier and deadlock reports *)
}

type plan = { func : Func.t; nregs : int; blocks : block array  (* entry first *) }

type program = {
  plans : plan array;  (* the module's functions, in module order *)
  by_name : (string, int) Hashtbl.t;  (* index in [plans]; the last definition wins *)
  sites : int ref;  (* next block id *)
}

(* Distinguished "register never written" marker; physical equality only. *)
let unset : Rvalue.t = Fn "\000unset"

type frame = {
  fplan : plan;
  mutable fblock : block;
  mutable fpc : int;  (* next instruction of [fblock]; past the end: its terminator *)
  fregs : Rvalue.t array;
  fargs : Rvalue.t array;
  flocal_base : int;
  fkind : frame_kind;
  (* register of the calling instruction expecting our return value, or -1 *)
  fret_reg : int;
}

type thread = {
  gid : int;
  tid : int;
  mutable stack : frame list;
  mutable status : status;
  mutable clock : int;
  mutable local_sp : int;
  mutable level : int;  (* parallel nesting level *)
  mutable last_work_gen : int;
  (* value delivered to the blocked runtime call on wakeup *)
  mutable wake_value : Rvalue.t;
  (* result register of the runtime call this thread is blocked in, or -1 *)
  mutable blocked_reg : int;
  (* true when parked in __kmpc_worker_wait_id (id protocol, post-CSM) *)
  mutable wait_wants_id : bool;
  (* "func/block" of the barrier this thread is parked in ("" when not);
     the deadlock detector reports it on barrier divergence *)
  mutable barrier_site : string;
  (* device-heap bytes this thread currently holds (globalization spills) *)
  mutable heap_live : int;
  (* per branch site (block id), how many times this thread has executed
     it; indexes the team's divergence table (grown on demand) *)
  mutable site_execs : int array;
}

type work = {
  wfn : string;
  wid : int64;
  wargs : Rvalue.t;
  wactive : int;  (* number of participating threads, including main *)
  wgen : int;
}

type team = {
  team_idx : int;  (* index within the launch (0..nteams-1) *)
  team_uid : int;  (* globally unique id, keys the shared memory arena *)
  threads : thread array;
  mutable shared_sp : int;
  mutable shared_high : int;
  mutable work : (work, unit) Either.t option;  (* Left w = published work *)
  mutable work_gen : int;
  mutable join_pending : int;
  mutable terminating : bool;
  mutable barrier_waiting : thread list;
  mutable exec_spmd : bool;
  mutable is_cuda : bool;
  (* shared-stack regions allocated AoS by __kmpc_alloc_shared: accesses
     into them are uncoalesced *)
  mutable uncoalesced : (int * int) list;
  (* per branch site (block id), the target block first taken at each
     per-thread execution index (< divergence_window; [no_target] until
     taken): a later thread choosing differently is a divergent-branch
     event.  Both levels grow on demand. *)
  mutable branch_first : int array array;
  launch_teams : int;
  launch_threads : int;
}

type launch_stats = {
  kernel_name : string;
  mutable cycles : int;  (* modeled kernel time *)
  mutable team_cycles_total : int;
  mutable instructions : int;
  mutable loads_global : int;
  mutable loads_shared : int;
  mutable loads_local : int;
  mutable stores_global : int;
  mutable stores_shared : int;
  mutable stores_local : int;
  mutable atomics_global : int;
  mutable atomics_shared : int;
  mutable divergent_branches : int;
  mutable runtime_calls : int;
  mutable barriers : int;
  mutable indirect_calls : int;
  mutable shared_bytes : int;  (* static + stack high water, max over teams *)
  mutable shared_fallbacks : int;
    (* shared-memory budget misses served from the device heap instead of
       aborting (the paper's globalization fallback path) *)
  mutable heap_high_water : int;
  mutable registers : int;
  mutable teams : int;
  mutable threads_per_team : int;
}

type t = {
  m : Irmod.t;
  machine : Machine.t;
  mem : Mem.t;
  mutable trace : Rvalue.t list;  (* __devrt_trace output, newest first *)
  mutable kernel_stats : launch_stats list;  (* newest first *)
  (* head of [kernel_stats], cached: read on every executed instruction *)
  mutable cur_stats : launch_stats option;
  team_uid_gen : Support.Util.Id_gen.t;
  mutable fuel : int;
  injector : Fault.Injector.t;
  (* the team the currently-simulated thread belongs to (None = host) *)
  mutable cur_team : team option;
  prog : program;
}

let decode_operand (mem : Mem.t) (v : Value.t) =
  match v with
  | Value.Const c -> Imm (of_const c)
  | Value.Reg id -> Reg id
  | Value.Arg i -> Arg i
  | Value.Func name -> Imm (Fn name)
  | Value.Global name -> (
    match Hashtbl.find_opt mem.Mem.globals_layout name with
    | Some addr -> Imm (P { sp = Sglobal; addr })
    | None -> (
      match Hashtbl.find_opt mem.Mem.shared_layout name with
      | Some addr -> Shared_global addr
      | None -> Unknown_global name))

(* Runtime functions win over module functions of the same name, as a
   call resolves them. *)
let decode_callee mem by_name = function
  | Instr.Indirect fv -> Indirect (decode_operand mem fv)
  | Instr.Direct name -> (
    match Devrt.Registry.lookup name with
    | Some _ -> Runtime name
    | None -> (
      match Hashtbl.find_opt by_name name with
      | Some k -> Defined k
      | None -> Unknown name))

let decode_instr mem by_name (i : Instr.t) =
  let o = decode_operand mem and id = i.Instr.id in
  match i.Instr.kind with
  | Instr.Alloca (ty, n) ->
    Alloca (id, Support.Util.round_up_to (max 1 (Types.size_of ty * n)) ~multiple:8)
  | Instr.Load (ty, p) -> Load (id, ty, o p)
  | Instr.Store (ty, v, p) -> Store (ty, o v, o p)
  | Instr.Gep (_, base, off) -> Gep (id, o base, o off)
  | Instr.Bin (op, ty, a, b) -> Bin (id, op, ty, o a, o b)
  | Instr.Icmp (cc, ty, a, b) -> Icmp (id, cc, ty, o a, o b)
  | Instr.Fcmp (cc, _, a, b) -> Fcmp (id, cc, o a, o b)
  | Instr.Cast (op, ty, v) -> Cast (id, op, ty, o v)
  | Instr.Select (_, c, a, b) -> Select (id, o c, o a, o b)
  | Instr.Atomicrmw (op, ty, p, v) -> Atomicrmw (id, op, ty, o p, o v)
  | Instr.Call (_, callee, args) ->
    Call
      ( (if Instr.has_result i then id else -1),
        decode_callee mem by_name callee,
        List.map o args )

let decode_func mem by_name sites (f : Func.t) =
  let index = Hashtbl.create 16 in
  List.iteri (fun k (b : Block.t) -> Hashtbl.replace index b.Block.label k) f.Func.blocks;
  let target l =
    { tblock = Option.value (Hashtbl.find_opt index l) ~default:(-1); tlabel = l }
  in
  let o = decode_operand mem in
  let nregs = ref 1 in
  let block (b : Block.t) =
    List.iter (fun (i : Instr.t) -> nregs := max !nregs (i.Instr.id + 1)) b.Block.instrs;
    let term =
      match b.Block.term with
      | Block.Br l -> Br (target l)
      | Block.Cbr (v, l1, l2) -> Cbr (o v, target l1, target l2)
      | Block.Switch (v, cases, default) ->
        Switch
          (o v, Array.of_list (List.map (fun (x, l) -> (x, target l)) cases), target default)
      | Block.Ret v -> Ret (Option.map o v)
      | Block.Unreachable -> Unreachable
    in
    let site = !sites in
    incr sites;
    {
      code = Array.of_list (List.map (decode_instr mem by_name) b.Block.instrs);
      term;
      site;
      site_name = f.Func.name ^ "/" ^ b.Block.label;
    }
  in
  let blocks = Array.of_list (List.map block f.Func.blocks) in
  { func = f; nregs = !nregs; blocks }

let create ?(fuel = 200_000_000) ?(injector = Fault.Injector.none)
    (machine : Machine.t) (m : Irmod.t) =
  let mem = Mem.create ~injector machine in
  Mem.layout_module mem m;
  let by_name = Hashtbl.create 64 in
  List.iteri (fun k f -> Hashtbl.replace by_name f.Func.name k) m.Irmod.funcs;
  let sites = ref 0 in
  let plans = Array.of_list (List.map (decode_func mem by_name sites) m.Irmod.funcs) in
  {
    m;
    machine;
    mem;
    trace = [];
    kernel_stats = [];
    cur_stats = None;
    team_uid_gen = Support.Util.Id_gen.create ();
    fuel;
    injector;
    cur_team = None;
    prog = { plans; by_name; sites };
  }

let plan_named t name =
  match Hashtbl.find_opt t.prog.by_name name with
  | Some k -> Some t.prog.plans.(k)
  | None -> None

(* The plan of [f]; a function the module does not hold (a kernel handed to
   [launch_kernel] directly) is decoded on the spot. *)
let plan_of t (f : Func.t) =
  match plan_named t f.Func.name with
  | Some p when p.func == f -> p
  | _ -> decode_func t.mem t.prog.by_name t.prog.sites f

let costs t = t.machine.Machine.costs

(* ------------------------------------------------------------------ *)
(* Value evaluation                                                    *)
(* ------------------------------------------------------------------ *)

let cur_frame th =
  match th.stack with
  | f :: _ -> f
  | [] -> error "thread %d has no frame" th.gid

let eval t fr = function
  | Reg id ->
    let rv =
      if id >= 0 && id < Array.length fr.fregs then Array.unsafe_get fr.fregs id else unset
    in
    if rv == unset then error "read of unset register %%%d in @%s" id fr.fplan.func.Func.name
    else rv
  | Arg i -> fr.fargs.(i)
  | Imm v -> v
  | Shared_global addr ->
    let team = match t.cur_team with Some team -> team.team_uid | None -> -1 in
    P { sp = Sshared team; addr }
  | Unknown_global name -> error "unknown global @%s" name

(* Left to right, as the call's arguments are evaluated. *)
let rec eval_args t fr = function
  | [] -> []
  | v :: rest ->
    let rv = eval t fr v in
    rv :: eval_args t fr rest

(* The result of a runtime call goes to the frame that is current after the
   call, which is the region's frame when the call pushed one. *)
let set_reg th id rv = (cur_frame th).fregs.(id) <- rv

(* ------------------------------------------------------------------ *)
(* Arithmetic                                                          *)
(* ------------------------------------------------------------------ *)

let exec_bin op ty a b =
  let open Instr in
  if Types.is_float ty then begin
    let x = as_float a and y = as_float b in
    let r =
      match op with
      | Fadd -> x +. y
      | Fsub -> x -. y
      | Fmul -> x *. y
      | Fdiv -> x /. y
      | _ -> error "integer binop on float type"
    in
    F (if Types.equal ty Types.F32 then to_f32 r else r)
  end
  else begin
    let x = as_int a and y = as_int b in
    (* unsigned operations must see the zero-extended value of the width *)
    let unsigned v =
      match ty with
      | Types.I1 -> Int64.logand v 1L
      | Types.I8 -> Int64.logand v 0xFFL
      | Types.I32 -> Int64.logand v 0xFFFFFFFFL
      | _ -> v
    in
    let r =
      match op with
      | Add -> Int64.add x y
      | Sub -> Int64.sub x y
      | Mul -> Int64.mul x y
      | Sdiv -> if y = 0L then error "division by zero" else Int64.div x y
      | Srem -> if y = 0L then error "remainder by zero" else Int64.rem x y
      | Udiv ->
        if y = 0L then error "division by zero"
        else Int64.unsigned_div (unsigned x) (unsigned y)
      | Urem ->
        if y = 0L then error "remainder by zero"
        else Int64.unsigned_rem (unsigned x) (unsigned y)
      | And -> Int64.logand x y
      | Or -> Int64.logor x y
      | Xor -> Int64.logxor x y
      | Shl -> Int64.shift_left x (Int64.to_int y land 63)
      | Lshr -> Int64.shift_right_logical (unsigned x) (Int64.to_int y land 63)
      | Ashr -> Int64.shift_right x (Int64.to_int y land 63)
      | Fadd | Fsub | Fmul | Fdiv -> error "float binop on integer type"
    in
    of_int64 (truncate_to ty r)
  end

let ptr_as_bits = function
  | P p -> Mem.encode_ptr p
  | Fn name -> Int64.of_int (1 + Hashtbl.hash name)  (* nonzero: never null *)
  | v -> as_int v

let exec_icmp cc ty a b =
  let open Instr in
  let x, y =
    if Types.is_pointer ty then (ptr_as_bits a, ptr_as_bits b) else (as_int a, as_int b)
  in
  let r =
    match cc with
    | Eq -> x = y
    | Ne -> x <> y
    | Slt -> x < y
    | Sle -> x <= y
    | Sgt -> x > y
    | Sge -> x >= y
    | Ult -> Int64.unsigned_compare x y < 0
    | Ule -> Int64.unsigned_compare x y <= 0
    | Ugt -> Int64.unsigned_compare x y > 0
    | Uge -> Int64.unsigned_compare x y >= 0
  in
  of_bool r

let exec_fcmp cc a b =
  let open Instr in
  let x = as_float a and y = as_float b in
  let r =
    match cc with
    | Oeq -> x = y
    | One -> x <> y && not (Float.is_nan x || Float.is_nan y)
    | Olt -> x < y
    | Ole -> x <= y
    | Ogt -> x > y
    | Oge -> x >= y
  in
  of_bool r

let exec_cast op to_ty v =
  let open Instr in
  match op with
  | Zext | Sext -> of_int64 (truncate_to to_ty (as_int v))
  | Trunc -> of_int64 (truncate_to to_ty (as_int v))
  | Sitofp ->
    let f = Int64.to_float (as_int v) in
    F (if Types.equal to_ty Types.F32 then to_f32 f else f)
  | Fptosi -> of_int64 (truncate_to to_ty (Int64.of_float (as_float v)))
  | Fpext -> F (as_float v)
  | Fptrunc -> F (to_f32 (as_float v))
  | Bitcast -> (
    match (v, to_ty) with
    | F f, Types.I64 -> I (Int64.bits_of_float f)
    | F f, Types.I32 -> I (Int64.of_int32 (Int32.bits_of_float f))
    | I i, Types.F64 -> F (Int64.float_of_bits i)
    | I i, Types.F32 -> F (Int32.float_of_bits (Int64.to_int32 i))
    | v, _ -> v)
  | Spacecast -> v

(* ------------------------------------------------------------------ *)
(* Cost accounting                                                     *)
(* ------------------------------------------------------------------ *)

let access_cost t (p : ptr) =
  let c = costs t in
  match p.sp with
  | Sglobal ->
    if Mem.is_cached t.mem p.addr then c.Machine.global_cached_access
    else c.Machine.global_access
  | Sshared uid -> (
    match t.cur_team with
    | Some team when team.team_uid = uid && Mem.in_ranges p.addr team.uncoalesced ->
      c.Machine.shared_uncoalesced_access
    | _ -> c.Machine.shared_access)
  | Slocal _ -> c.Machine.local_access

let stats_top t = t.cur_stats

let count_load t (p : ptr) =
  match stats_top t with
  | None -> ()
  | Some s -> (
    match p.sp with
    | Sglobal -> s.loads_global <- s.loads_global + 1
    | Sshared _ -> s.loads_shared <- s.loads_shared + 1
    | Slocal _ -> s.loads_local <- s.loads_local + 1)

let count_store t (p : ptr) =
  match stats_top t with
  | None -> ()
  | Some s -> (
    match p.sp with
    | Sglobal -> s.stores_global <- s.stores_global + 1
    | Sshared _ -> s.stores_shared <- s.stores_shared + 1
    | Slocal _ -> s.stores_local <- s.stores_local + 1)

let count_atomic t (p : ptr) =
  match stats_top t with
  | None -> ()
  | Some s -> (
    match p.sp with
    | Sglobal -> s.atomics_global <- s.atomics_global + 1
    | Sshared _ -> s.atomics_shared <- s.atomics_shared + 1
    | Slocal _ -> ()  (* thread-private: not a contended operation *))

(* Divergence detection.  The run-to-block scheduler never aligns thread
   PCs, so SIMT divergence is reconstructed structurally: per branch site,
   the n-th execution by every thread of a team should take the same target;
   a thread disagreeing with the first-recorded target at its index is one
   divergent-branch event.  Tracking stops past [divergence_window]
   executions per site to bound the table on long-running uniform loops
   (divergence there repeats the early pattern). *)
let divergence_window = 4096

let no_target = min_int

(* A copy of [a] grown by doubling, new slots [fill], so [i] is in range. *)
let grow a i fill =
  let b = Array.make (max (i + 1) (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* [fr] takes the branch at the end of its block to block [target]; the
   site identifies the function, so block indices compare like labels. *)
let note_branch t th fr target =
  match t.cur_team with
  | Some team when Array.length team.threads > 1 -> (
    match stats_top t with
    | None -> ()
    | Some s ->
      let site = fr.fblock.site in
      if site >= Array.length th.site_execs then th.site_execs <- grow th.site_execs site 0;
      let n = th.site_execs.(site) in
      th.site_execs.(site) <- n + 1;
      if n < divergence_window then begin
        if site >= Array.length team.branch_first then
          team.branch_first <- grow team.branch_first site [||];
        if n >= Array.length team.branch_first.(site) then
          team.branch_first.(site) <- grow team.branch_first.(site) n no_target;
        let firsts = team.branch_first.(site) in
        let first = firsts.(n) in
        if first = no_target then firsts.(n) <- target
        else if first <> target then s.divergent_branches <- s.divergent_branches + 1
      end)
  | _ -> ()

let charge th cycles = th.clock <- th.clock + cycles

(* ------------------------------------------------------------------ *)
(* Synchronization mechanics                                           *)
(* ------------------------------------------------------------------ *)

let barrier_expected team =
  if team.exec_spmd then Array.length team.threads
  else
    match team.work with
    | Some (Either.Left w) -> w.wactive
    | Some (Either.Right ()) | None -> 1

(* The "func/block" site a thread currently executes — the barrier id the
   deadlock detector reports.  Region-exit implicit barriers run after the
   frame was popped, so fall back to the caller frame (or a fixed tag). *)
let thread_site th =
  match th.stack with
  | f :: _ -> f.fblock.site_name
  | [] -> "<region-exit>"

(* Thread [th] arrives at a team barrier.  Returns [true] if the thread may
   continue immediately (it was the last to arrive or is alone). *)
let barrier_enter t team th =
  let expected = barrier_expected team in
  (match stats_top t with Some s -> s.barriers <- s.barriers + 1 | None -> ());
  if expected <= 1 then begin
    charge th (costs t).Machine.barrier;
    true
  end
  else begin
    team.barrier_waiting <- th :: team.barrier_waiting;
    if List.length team.barrier_waiting >= expected then begin
      let arrival =
        List.fold_left (fun acc th' -> max acc th'.clock) 0 team.barrier_waiting
      in
      let release = arrival + (costs t).Machine.barrier in
      List.iter
        (fun th' ->
          th'.clock <- release;
          th'.status <- Runnable;
          th'.barrier_site <- "")
        team.barrier_waiting;
      team.barrier_waiting <- [];
      true
    end
    else begin
      th.status <- In_barrier;
      th.barrier_site <- thread_site th;
      false
    end
  end

(* Publish a parallel region from the main thread (generic mode, level 0). *)
let publish_work t team th ~fn ~id ~args ~requested =
  let nthreads = Array.length team.threads in
  let active = if requested > 0 then min requested nthreads else nthreads in
  charge th (costs t).Machine.parallel_publish;
  (* the generic-mode runtime releases work through a team-wide dispatch
     barrier (one arrival per thread); its time is already modeled by the
     publish/resume costs, but it counts as a barrier in the cost model —
     this is the synchronization SPMDization deletes *)
  (match stats_top t with
  | Some s -> s.barriers <- s.barriers + nthreads
  | None -> ());
  team.work_gen <- team.work_gen + 1;
  team.work <-
    Some (Either.Left { wfn = fn; wid = id; wargs = args; wactive = active; wgen = team.work_gen });
  team.join_pending <- active - 1;  (* workers; main participates directly *)
  (* wake parked workers that participate *)
  Array.iter
    (fun w ->
      if w.tid > 0 && w.tid < active && w.status = Wait_work then begin
        w.status <- Runnable;
        w.clock <- max w.clock (th.clock + (costs t).Machine.worker_resume);
        w.wake_value <- (if w.wait_wants_id then I id else Fn fn);
        w.last_work_gen <- team.work_gen;
        w.level <- 1
      end)
    team.threads

let finish_join t team =
  team.work <- None;
  let main = team.threads.(0) in
  if main.status = Wait_join then begin
    let worker_max =
      Array.fold_left
        (fun acc w -> if w.tid > 0 then max acc w.clock else acc)
        0 team.threads
    in
    main.status <- Runnable;
    main.clock <- max main.clock worker_max + (costs t).Machine.parallel_join
  end;
  (* the matching join side of the dispatch barrier (see publish_work) *)
  match stats_top t with
  | Some s -> s.barriers <- s.barriers + Array.length team.threads
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Function call machinery                                             *)
(* ------------------------------------------------------------------ *)

let push_frame th ~kind ~ret_reg plan args =
  if Array.length plan.blocks = 0 then
    error "call to undefined function @%s" plan.func.Func.name;
  let frame =
    {
      fplan = plan;
      fblock = plan.blocks.(0);
      fpc = 0;
      fregs = Array.make plan.nregs unset;
      fargs = args;
      flocal_base = th.local_sp;
      fkind = kind;
      fret_reg = ret_reg;
    }
  in
  th.stack <- frame :: th.stack

(* Returns [false] when the thread has fully finished. *)
let pop_frame t team_opt th (ret : Rvalue.t) =
  match th.stack with
  | [] -> false
  | frame :: rest ->
    th.local_sp <- frame.flocal_base;
    th.stack <- rest;
    (match frame.fkind with
    | Normal -> ()
    | Parallel_body_generic -> (
      th.level <- th.level - 1;
      match team_opt with
      | Some team ->
        if team.join_pending > 0 then th.status <- Wait_join else finish_join t team
      | None -> ())
    | Parallel_body_spmd -> (
      th.level <- th.level - 1;
      match team_opt with
      | Some team -> ignore (barrier_enter t team th)
      | None -> ())
    | Parallel_body_nested -> th.level <- th.level - 1);
    (match rest with
    | caller :: _ when frame.fret_reg >= 0 -> caller.fregs.(frame.fret_reg) <- ret
    | _ -> ());
    rest <> []

(* ------------------------------------------------------------------ *)
(* Device runtime interception                                         *)
(* ------------------------------------------------------------------ *)

(* result of a runtime call *)
type rt_result =
  | Done of Rvalue.t  (* call completed, thread continues *)
  | Blocked  (* thread parked; the call's result arrives via wake_value *)

let is_main_thread th = th.tid = 0

(* Allocate from the device heap, modeling the concurrent footprint: on
   real hardware every resident team runs all of its threads at once, and
   each executes the same allocation sites; the simulator serializes
   threads, so the footprint is reconstructed from the per-thread live
   bytes scaled by the number of concurrently allocating threads. *)
let device_heap_alloc t team th size =
  let p, granted = Mem.heap_alloc t.mem size in
  th.heap_live <- th.heap_live + granted;
  let resident_teams = max 1 (min team.launch_teams t.machine.Machine.num_sms) in
  let allocating_threads =
    if team.exec_spmd || th.level > 0 then Array.length team.threads else 1
  in
  let footprint = th.heap_live * allocating_threads * resident_teams in
  (match stats_top t with
  | Some s -> if footprint > s.heap_high_water then s.heap_high_water <- footprint
  | None -> ());
  if footprint > t.machine.Machine.heap_bytes then
    raise
      (Mem.Out_of_memory
         (Printf.sprintf
            "device heap exhausted: %d teams x %d threads x %d live bytes exceeds %d"
            resident_teams allocating_threads th.heap_live
            t.machine.Machine.heap_bytes));
  p

let device_heap_free t th addr size =
  let size8 = Support.Util.round_up_to (max 8 size) ~multiple:8 in
  th.heap_live <- max 0 (th.heap_live - size8);
  Mem.heap_free_block t.mem addr size

let count_shared_fallback t =
  match stats_top t with
  | Some s -> s.shared_fallbacks <- s.shared_fallbacks + 1
  | None -> ()

(* The shared-memory budget check of an allocation site.  Injection at
   [Shared_budget] simulates exhaustion: the allocation must then take the
   same graceful heap-fallback path a genuinely full budget takes — the
   run continues (slower), it does not abort. *)
let shared_budget_allows t fits =
  fits && not (Fault.Injector.fire t.injector Fault.Injector.Shared_budget)

let alloc_shared_storage t team th size =
  let c = costs t in
  let in_sequential_main =
    (not team.exec_spmd) && is_main_thread th && th.level = 0
  in
  let size_tax = size / 8 in
  if in_sequential_main then begin
    (* bump the team's dynamic data-sharing stack; it is a small carve-out,
       so large allocations fall back to the device heap *)
    let size8 = Support.Util.round_up_to (max 8 size) ~multiple:8 in
    let dyn_used = team.shared_sp - t.mem.Mem.static_shared_size in
    if
      shared_budget_allows t
        (dyn_used + size8 <= t.machine.Machine.dyn_shared_stack_bytes
        && team.shared_sp + size8 <= t.machine.Machine.shared_bytes_per_team)
    then begin
      charge th (c.Machine.alloc_shared_main + size_tax);
      let addr = team.shared_sp in
      team.shared_sp <- team.shared_sp + size8;
      if team.shared_sp > team.shared_high then team.shared_high <- team.shared_sp;
      team.uncoalesced <- (addr, addr + size8) :: team.uncoalesced;
      P { sp = Sshared team.team_uid; addr }
    end
    else begin
      (* budget miss (real or injected): graceful device-heap fallback *)
      count_shared_fallback t;
      charge th (c.Machine.alloc_shared_parallel + size_tax);
      P (device_heap_alloc t team th size)
    end
  end
  else begin
    (* per-thread allocation in a parallel context: contended global heap *)
    charge th (c.Machine.alloc_shared_parallel + size_tax);
    P (device_heap_alloc t team th size)
  end

let free_shared_storage t team th ptr size =
  let c = costs t in
  charge th c.Machine.free_shared;
  match ptr with
  | P { sp = Sshared uid; addr } when uid = team.team_uid ->
    let size8 = Support.Util.round_up_to (max 8 size) ~multiple:8 in
    (* LIFO pop when possible; otherwise just account *)
    if addr + size8 = team.shared_sp then team.shared_sp <- addr
  | P ({ sp = Sglobal; _ } as p) -> device_heap_free t th p.addr size
  | P { sp = Slocal _; _ } -> ()  (* legacy SPMD fast path: plain alloca *)
  | _ -> ()

(* Legacy push: one aggregated allocation.  In a sequential main region it
   behaves like alloc_shared; in a parallel context the warp-coalesced
   implementation amortizes the runtime call across the warp and still
   places data in shared memory when it fits. *)
let legacy_push t team th size =
  let c = costs t in
  let size8 = Support.Util.round_up_to (max 8 size) ~multiple:8 in
  let fits =
    shared_budget_allows t
      (team.shared_sp + size8 <= t.machine.Machine.shared_bytes_per_team)
  in
  if fits then begin
    let amortized =
      if th.level > 0 || team.exec_spmd then max 16 (c.Machine.push_stack / 4)
      else c.Machine.push_stack
    in
    charge th amortized;
    let addr = team.shared_sp in
    team.shared_sp <- team.shared_sp + size8;
    if team.shared_sp > team.shared_high then team.shared_high <- team.shared_sp;
    P { sp = Sshared team.team_uid; addr }
  end
  else begin
    count_shared_fallback t;
    charge th c.Machine.push_stack;
    P (device_heap_alloc t team th size)
  end

let trace_value t rv = t.trace <- rv :: t.trace

let math1 name x =
  match name with
  | "__math_sqrt" -> sqrt x
  | "__math_sin" -> sin x
  | "__math_cos" -> cos x
  | "__math_exp" -> exp x
  | "__math_log" -> log x
  | "__math_fabs" -> Float.abs x
  | _ -> error "unknown math builtin %s" name

(* Execute a device runtime call on a device thread. *)
let device_runtime_call t team th name (args : Rvalue.t list) : rt_result =
  let c = costs t in
  (match stats_top t with Some s -> s.runtime_calls <- s.runtime_calls + 1 | None -> ());
  match (name, args) with
  | "__kmpc_target_init", [ _mode ] ->
    let cost =
      if team.is_cuda then c.Machine.target_init_cuda
      else if team.exec_spmd then c.Machine.target_init_spmd
      else c.Machine.target_init_generic
    in
    charge th cost;
    Done (I (if (not team.exec_spmd) && is_main_thread th then -1L else Int64.of_int th.tid))
  | "__kmpc_target_deinit", [ _mode ] ->
    charge th c.Machine.target_deinit;
    if not team.exec_spmd then begin
      (* main thread terminates the worker state machine *)
      team.terminating <- true;
      Array.iter
        (fun w ->
          if w.tid > 0 && w.status = Wait_work then begin
            w.status <- Runnable;
            w.clock <- max w.clock (th.clock + c.Machine.worker_resume);
            (* null fn pointer / id -2: exit the state machine *)
            w.wake_value <- (if w.wait_wants_id then I (-2L) else I 0L)
          end)
        team.threads
    end;
    Done Undef
  | "__kmpc_parallel_51", [ fnv; idv; argsv; numv ] -> (
    let fname =
      match fnv with
      | Fn f -> f
      | v when is_null v -> ""
      | _ -> error "parallel_51: bad function operand"
    in
    let enter kind =
      match plan_named t fname with
      | Some plan -> push_frame th ~kind ~ret_reg:(-1) plan [| argsv |]
      | None -> error "parallel_51: unknown function %s" fname
    in
    if th.level > 0 then begin
      (* nested parallelism executes sequentially on the encountering thread *)
      charge th c.Machine.call;
      th.level <- th.level + 1;
      enter Parallel_body_nested;
      Done Undef
    end
    else if team.exec_spmd then begin
      (* SPMD: every thread runs the region directly; implicit barrier at end *)
      charge th c.Machine.call;
      th.level <- th.level + 1;
      enter Parallel_body_spmd;
      Done Undef
    end
    else begin
      (* generic mode level 0: publish to the worker state machine *)
      publish_work t team th ~fn:fname ~id:(as_int idv) ~args:argsv
        ~requested:(Int64.to_int (as_int numv));
      th.level <- th.level + 1;
      enter Parallel_body_generic;
      Done Undef
    end)
  | "__kmpc_worker_wait", [] | "__kmpc_worker_wait_id", [] -> (
    let want_id = String.equal name "__kmpc_worker_wait_id" in
    if team.terminating then
      Done (if want_id then I (-2L) else I 0L)
    else
      match team.work with
      | Some (Either.Left w) when w.wgen > th.last_work_gen && th.tid < w.wactive ->
        th.last_work_gen <- w.wgen;
        charge th c.Machine.worker_resume;
        th.level <- 1;  (* the worker is now inside the parallel region *)
        Done (if want_id then I w.wid else Fn w.wfn)
      | _ ->
        th.status <- Wait_work;
        th.wait_wants_id <- want_id;
        Blocked)
  | "__kmpc_get_parallel_args", [] -> (
    match team.work with
    | Some (Either.Left w) -> Done w.wargs
    | _ -> error "get_parallel_args outside a region")
  | "__kmpc_get_parallel_id", [] -> (
    match team.work with
    | Some (Either.Left w) -> Done (I w.wid)
    | _ -> error "get_parallel_id outside a region")
  | "__kmpc_get_parallel_fn", [] -> (
    match team.work with
    | Some (Either.Left w) -> Done (Fn w.wfn)
    | _ -> error "get_parallel_fn outside a region")
  | "__kmpc_worker_done", [] ->
    charge th c.Machine.worker_done;
    th.level <- 0;
    team.join_pending <- team.join_pending - 1;
    if team.join_pending <= 0 then finish_join t team;
    Done Undef
  | "__kmpc_alloc_shared", [ size ] ->
    Done (alloc_shared_storage t team th (Int64.to_int (as_int size)))
  | "__kmpc_free_shared", [ ptr; size ] ->
    free_shared_storage t team th ptr (Int64.to_int (as_int size));
    Done Undef
  | "__kmpc_data_sharing_push_stack", [ size; _use_shared ] ->
    Done (legacy_push t team th (Int64.to_int (as_int size)))
  | "__kmpc_data_sharing_pop_stack", [ ptr ] ->
    (match ptr with
    | P { sp = Sshared uid; addr } when uid = team.team_uid ->
      charge th c.Machine.pop_stack;
      if addr < team.shared_sp then team.shared_sp <- addr
    | P ({ sp = Sglobal; _ } as p) ->
      charge th c.Machine.pop_stack;
      (* we do not know the size; free a conservative 8 bytes *)
      device_heap_free t th p.addr 8
    | _ -> ());
    Done Undef
  | "__kmpc_is_spmd_exec_mode", [] ->
    charge th c.Machine.runtime_query;
    Done (I (if team.exec_spmd then 1L else 0L))
  | "__kmpc_parallel_level", [] ->
    charge th c.Machine.runtime_query;
    Done (I (Int64.of_int (if team.exec_spmd then max 1 th.level else th.level)))
  | "__gpu_thread_id", [] ->
    charge th c.Machine.alu;
    Done (I (Int64.of_int th.tid))
  | "__gpu_num_threads", [] ->
    charge th c.Machine.alu;
    let n =
      if team.exec_spmd then Array.length team.threads
      else
        match team.work with
        | Some (Either.Left w) when th.level > 0 -> w.wactive
        | _ -> Array.length team.threads
    in
    Done (I (Int64.of_int n))
  | "__gpu_team_id", [] ->
    charge th c.Machine.alu;
    Done (I (Int64.of_int team.team_idx))
  | "__gpu_num_teams", [] ->
    charge th c.Machine.alu;
    Done (I (Int64.of_int team.launch_teams))
  | "__kmpc_data_sharing_mode_check", [] ->
    charge th c.Machine.runtime_query_opaque;
    Done (I (if team.exec_spmd then 1L else 0L))
  | "omp_get_thread_num", [] ->
    charge th c.Machine.runtime_query_opaque;
    Done (I (Int64.of_int (if team.exec_spmd || th.level > 0 then th.tid else 0)))
  | "omp_get_num_threads", [] ->
    charge th c.Machine.runtime_query_opaque;
    let n =
      if team.exec_spmd then Array.length team.threads
      else
        match team.work with
        | Some (Either.Left w) when th.level > 0 -> w.wactive
        | _ -> Array.length team.threads
    in
    Done (I (Int64.of_int n))
  | "omp_get_team_num", [] ->
    charge th c.Machine.runtime_query_opaque;
    Done (I (Int64.of_int team.team_idx))
  | "omp_get_num_teams", [] ->
    charge th c.Machine.runtime_query_opaque;
    Done (I (Int64.of_int team.launch_teams))
  | "__kmpc_get_warp_size", [] ->
    charge th c.Machine.runtime_query;
    Done (I (Int64.of_int t.machine.Machine.warp_size))
  | "__kmpc_get_hardware_num_threads", [] ->
    charge th c.Machine.runtime_query;
    Done (I (Int64.of_int (Array.length team.threads)))
  | "__kmpc_barrier", [] ->
    ignore (barrier_enter t team th);
    Done Undef
  | "__devrt_trace", [ v ] ->
    charge th c.Machine.trace;
    trace_value t (I (as_int v));
    Done Undef
  | "__devrt_trace_f64", [ v ] ->
    charge th c.Machine.trace;
    trace_value t (F (as_float v));
    Done Undef
  | _, _ -> (
    match name with
    | "__math_pow" -> (
      charge th c.Machine.math_pow;
      match args with
      | [ x; y ] -> Done (F (Float.pow (as_float x) (as_float y)))
      | _ -> error "pow arity")
    | "__math_fmin" -> (
      charge th c.Machine.alu;
      match args with
      | [ x; y ] -> Done (F (Float.min (as_float x) (as_float y)))
      | _ -> error "fmin arity")
    | "__math_fmax" -> (
      charge th c.Machine.alu;
      match args with
      | [ x; y ] -> Done (F (Float.max (as_float x) (as_float y)))
      | _ -> error "fmax arity")
    | "__math_sqrtf" -> (
      charge th c.Machine.math_sqrt;
      match args with
      | [ x ] -> Done (F (to_f32 (sqrt (as_float x))))
      | _ -> error "sqrtf arity")
    | "__math_sqrt" ->
      charge th c.Machine.math_sqrt;
      (match args with [ x ] -> Done (F (math1 name (as_float x))) | _ -> error "arity")
    | "__math_sin" | "__math_cos" | "__math_exp" | "__math_log" ->
      charge th c.Machine.math_trig;
      (match args with [ x ] -> Done (F (math1 name (as_float x))) | _ -> error "arity")
    | "__math_fabs" ->
      charge th c.Machine.alu;
      (match args with [ x ] -> Done (F (math1 name (as_float x))) | _ -> error "arity")
    | _ -> error "unimplemented runtime function %s" name)

(* ------------------------------------------------------------------ *)
(* Instruction stepping                                                *)
(* ------------------------------------------------------------------ *)

let bin_cost t (op : Instr.bin) =
  let c = costs t in
  match op with
  | Instr.Add | Instr.Sub | Instr.And | Instr.Or | Instr.Xor | Instr.Shl
  | Instr.Lshr | Instr.Ashr ->
    c.Machine.alu
  | Instr.Mul -> c.Machine.imul
  | Instr.Sdiv | Instr.Srem | Instr.Udiv | Instr.Urem -> c.Machine.idiv
  | Instr.Fadd | Instr.Fsub -> c.Machine.fadd
  | Instr.Fmul -> c.Machine.fmul
  | Instr.Fdiv -> c.Machine.fdiv

(* Host-side subset of the runtime: math, tracing, and trivial queries.
   Synchronization primitives are meaningless on the single host thread. *)
let host_runtime_call t th name (args : Rvalue.t list) : Rvalue.t =
  ignore th;
  match (name, args) with
  | "__devrt_trace", [ v ] ->
    trace_value t (I (as_int v));
    Undef
  | "__devrt_trace_f64", [ v ] ->
    trace_value t (F (as_float v));
    Undef
  | "__math_pow", [ x; y ] -> F (Float.pow (as_float x) (as_float y))
  | "__math_fmin", [ x; y ] -> F (Float.min (as_float x) (as_float y))
  | "__math_fmax", [ x; y ] -> F (Float.max (as_float x) (as_float y))
  | "__math_sqrtf", [ x ] -> F (to_f32 (sqrt (as_float x)))
  | ("__math_sqrt" | "__math_sin" | "__math_cos" | "__math_exp" | "__math_log"
    | "__math_fabs"), [ x ] ->
    F (math1 name (as_float x))
  | "omp_get_thread_num", [] | "__gpu_thread_id", [] | "__gpu_team_id", []
  | "omp_get_team_num", [] ->
    I 0L
  | "omp_get_num_threads", [] | "__gpu_num_threads", [] | "__gpu_num_teams", []
  | "omp_get_num_teams", [] | "__kmpc_parallel_level", [] ->
    I 1L
  | "__kmpc_is_spmd_exec_mode", [] | "__kmpc_data_sharing_mode_check", [] -> I 0L
  | "__kmpc_barrier", [] -> Undef
  | "__kmpc_alloc_shared", [ size ] ->
    let p, _ = Mem.heap_alloc t.mem (Int64.to_int (as_int size)) in
    P p
  | "__kmpc_free_shared", [ ptr; size ] ->
    (match ptr with
    | P { sp = Sglobal; addr } -> Mem.heap_free_block t.mem addr (Int64.to_int (as_int size))
    | _ -> ());
    Undef
  | _ -> error "runtime call %s is not available on the host" name

(* mutable hook filled in below to break the recursion with kernel launch *)
let launch_hook :
    (t -> Func.t -> Rvalue.t list -> unit) ref =
  ref (fun _ _ _ -> error "launch hook not installed")

(* A call to a device runtime function; [res] is the result register or -1. *)
let runtime_call t team_opt th res name args =
  match team_opt with
  | Some team -> (
    match device_runtime_call t team th name args with
    | Done rv -> if res >= 0 then set_reg th res rv
    | Blocked -> th.blocked_reg <- res)
  | None ->
    let rv = host_runtime_call t th name args in
    if res >= 0 then set_reg th res rv

(* A call to a module function: a kernel launch from the host, otherwise a
   new frame. *)
let call_plan t team_opt th res plan args =
  let f = plan.func in
  if Func.is_kernel f && team_opt = None then !launch_hook t f args
  else if not (Func.is_declaration f) then begin
    charge th (costs t).Machine.call;
    push_frame th ~kind:Normal ~ret_reg:res plan (Array.of_list args)
  end
  else if Func.is_kernel f then error "kernel @%s launched from device code" f.Func.name
  else error "call to external function @%s" f.Func.name

let call_named t team_opt th res name args =
  match Devrt.Registry.lookup name with
  | Some _ -> runtime_call t team_opt th res name args
  | None -> (
    match plan_named t name with
    | Some plan -> call_plan t team_opt th res plan args
    | None -> error "call to unknown function @%s" name)

(* Execute one instruction of [fr], the running frame; the caller already
   advanced its pc past it. *)
let exec_instr t (team_opt : team option) th fr (op : op) =
  let c = costs t in
  (match stats_top t with Some s -> s.instructions <- s.instructions + 1 | None -> ());
  t.fuel <- t.fuel - 1;
  if t.fuel <= 0 then
    sim_error
      (Fault.Ompgpu_error.Timeout { seconds = 0. })
      "simulation fuel exhausted (infinite loop?)";
  if Fault.Injector.fire t.injector Fault.Injector.Sim_trap then
    sim_error Fault.Ompgpu_error.Sim_trap
      "injected trap in @%s (thread %d)"
      fr.fplan.func.Func.name th.gid;
  match op with
  | Alloca (id, size) ->
    charge th c.Machine.alu;
    let addr = th.local_sp in
    if addr + size > t.machine.Machine.local_bytes_per_thread then
      error "thread %d local stack overflow" th.gid;
    th.local_sp <- th.local_sp + size;
    fr.fregs.(id) <- P { sp = Slocal th.gid; addr }
  | Load (id, ty, pv) ->
    let p = as_ptr (eval t fr pv) in
    charge th (access_cost t p);
    count_load t p;
    fr.fregs.(id) <- Mem.read t.mem ~current:th.gid p ty
  | Store (ty, v, pv) ->
    let p = as_ptr (eval t fr pv) in
    charge th (access_cost t p);
    count_store t p;
    Mem.write t.mem ~current:th.gid p ty (eval t fr v)
  | Gep (id, base, off) ->
    charge th c.Machine.alu;
    let p = as_ptr (eval t fr base) in
    let o = Int64.to_int (as_int (eval t fr off)) in
    fr.fregs.(id) <- P { p with addr = p.addr + o }
  | Bin (id, op, ty, a, b) ->
    charge th (bin_cost t op);
    fr.fregs.(id) <- exec_bin op ty (eval t fr a) (eval t fr b)
  | Icmp (id, cc, ty, a, b) ->
    charge th c.Machine.alu;
    fr.fregs.(id) <- exec_icmp cc ty (eval t fr a) (eval t fr b)
  | Fcmp (id, cc, a, b) ->
    charge th c.Machine.alu;
    fr.fregs.(id) <- exec_fcmp cc (eval t fr a) (eval t fr b)
  | Cast (id, op, ty, v) ->
    charge th c.Machine.cast;
    fr.fregs.(id) <- exec_cast op ty (eval t fr v)
  | Select (id, cv, a, b) ->
    charge th c.Machine.alu;
    fr.fregs.(id) <- (if as_int (eval t fr cv) <> 0L then eval t fr a else eval t fr b)
  | Atomicrmw (id, op, ty, pv, v) ->
    let p = as_ptr (eval t fr pv) in
    charge th
      (match p.sp with
      | Sglobal -> c.Machine.atomic_global
      | Sshared _ -> c.Machine.atomic_shared
      | Slocal _ -> c.Machine.local_access);
    count_atomic t p;
    let old = Mem.read t.mem ~current:th.gid p ty in
    let next =
      match op with
      | Instr.A_add -> exec_bin Instr.Add ty old (eval t fr v)
      | Instr.A_fadd -> exec_bin Instr.Fadd ty old (eval t fr v)
      | Instr.A_min ->
        if Types.is_float ty then F (Float.min (as_float old) (as_float (eval t fr v)))
        else I (min (as_int old) (as_int (eval t fr v)))
      | Instr.A_max ->
        if Types.is_float ty then F (Float.max (as_float old) (as_float (eval t fr v)))
        else I (max (as_int old) (as_int (eval t fr v)))
      | Instr.A_exchange -> eval t fr v
      | Instr.A_cas -> eval t fr v
    in
    Mem.write t.mem ~current:th.gid p ty next;
    fr.fregs.(id) <- old
  | Call (res, callee, argvs) -> (
    let args = eval_args t fr argvs in
    match callee with
    | Runtime name -> runtime_call t team_opt th res name args
    | Defined k -> call_plan t team_opt th res t.prog.plans.(k) args
    | Unknown name -> error "call to unknown function @%s" name
    | Indirect fv -> (
      charge th c.Machine.indirect_call;
      (match stats_top t with
      | Some s -> s.indirect_calls <- s.indirect_calls + 1
      | None -> ());
      match eval t fr fv with
      | Fn name -> call_named t team_opt th res name args
      | v -> error "indirect call through non-function value %s" (Fmt.str "%a" pp v)))

let goto fr (target : target) =
  if target.tblock < 0 then
    Support.Util.failf "Func.find_block: no block %s in %s" target.tlabel
      fr.fplan.func.Func.name;
  fr.fblock <- fr.fplan.blocks.(target.tblock);
  fr.fpc <- 0

let rec switch_target x cases k default =
  if k = Array.length cases then default
  else
    let v, target = cases.(k) in
    if Int64.equal v x then target else switch_target x cases (k + 1) default

(* Execute the terminator of [fr]'s block; [false] when the thread has
   returned from its last frame. *)
let exec_term t th fr =
  let c = costs t in
  match fr.fblock.term with
  | Br target ->
    charge th c.Machine.alu;
    goto fr target;
    true
  | Cbr (v, l1, l2) ->
    charge th c.Machine.alu;
    let target = if as_int (eval t fr v) <> 0L then l1 else l2 in
    note_branch t th fr target.tblock;
    goto fr target;
    true
  | Switch (v, cases, default) ->
    charge th c.Machine.alu;
    let x = as_int (eval t fr v) in
    let target = switch_target x cases 0 default in
    note_branch t th fr target.tblock;
    goto fr target;
    true
  | Ret v ->
    let rv = match v with Some v -> eval t fr v | None -> Undef in
    pop_frame t t.cur_team th rv
  | Unreachable -> error "executed unreachable in @%s" fr.fplan.func.Func.name

(* Run [th] until it blocks or finishes. *)
let run_thread t (team_opt : team option) th =
  (* deliver the result of a call the thread was parked in *)
  if th.blocked_reg >= 0 && th.status = Runnable then begin
    set_reg th th.blocked_reg th.wake_value;
    th.blocked_reg <- -1
  end;
  while th.status = Runnable do
    match th.stack with
    | [] -> th.status <- Finished
    | fr :: _ ->
      let pc = fr.fpc in
      if pc < Array.length fr.fblock.code then begin
        fr.fpc <- pc + 1;
        exec_instr t team_opt th fr (Array.unsafe_get fr.fblock.code pc)
      end
      else if not (exec_term t th fr) then th.status <- Finished
  done

(* ------------------------------------------------------------------ *)
(* Team simulation                                                     *)
(* ------------------------------------------------------------------ *)

(* Diagnose a stuck team: no thread runnable, yet not all finished.  The
   prime suspect is barrier divergence — some threads parked in a barrier
   whose remaining arrivals can never come because their teammates finished
   or parked elsewhere.  Report the offending barrier site(s) with arrival
   accounting so the user can find the divergent branch. *)
let deadlock_diagnosis team =
  let count p = Array.fold_left (fun n th -> if p th then n + 1 else n) 0 team.threads in
  let in_barrier = count (fun th -> th.status = In_barrier) in
  if in_barrier > 0 then begin
    let sites = Hashtbl.create 4 in
    Array.iter
      (fun th ->
        if th.status = In_barrier then begin
          let site = if th.barrier_site = "" then "<unknown>" else th.barrier_site in
          let n = match Hashtbl.find_opt sites site with Some n -> n | None -> 0 in
          Hashtbl.replace sites site (n + 1)
        end)
      team.threads;
    let site_list =
      List.sort compare (Hashtbl.fold (fun site n acc -> (site, n) :: acc) sites [])
    in
    let barrier = String.concat ", " (List.map fst site_list) in
    let detail =
      String.concat "; "
        (List.map (fun (site, n) -> Printf.sprintf "%d at %s" n site) site_list)
    in
    sim_error
      (Fault.Ompgpu_error.Deadlock { barrier })
      "barrier divergence in team %d: %s waiting for %d arrival(s), but %d \
       teammate(s) finished and %d parked elsewhere — a barrier on a \
       divergent path is never released"
      team.team_idx detail (barrier_expected team)
      (count (fun th -> th.status = Finished))
      (count (fun th -> th.status = Wait_work || th.status = Wait_join))
  end
  else
    sim_error
      (Fault.Ompgpu_error.Deadlock { barrier = "<worker-state-machine>" })
      "team %d: no runnable thread (%d waiting for work, %d waiting to join, \
       %d finished) — the worker state machine cannot make progress"
      team.team_idx
      (count (fun th -> th.status = Wait_work))
      (count (fun th -> th.status = Wait_join))
      (count (fun th -> th.status = Finished))

let run_team t team =
  let prev = t.cur_team in
  t.cur_team <- Some team;
  let all_done () = Array.for_all (fun th -> th.status = Finished) team.threads in
  let guard = ref 0 in
  while not (all_done ()) do
    incr guard;
    if !guard > 100_000_000 then
      sim_error
        (Fault.Ompgpu_error.Deadlock { barrier = "<scheduler>" })
        "team %d scheduling did not converge after %d steps" team.team_idx !guard;
    (* pick the runnable thread with the smallest clock *)
    let best = ref None in
    Array.iter
      (fun th ->
        if th.status = Runnable then
          match !best with
          | Some b when b.clock <= th.clock -> ()
          | _ -> best := Some th)
      team.threads;
    match !best with
    | Some th -> run_thread t (Some team) th
    | None ->
      (* nobody runnable: every non-finished thread is parked *)
      let parked_workers =
        Array.exists (fun th -> th.status = Wait_work) team.threads
      in
      if parked_workers && team.terminating then
        Array.iter
          (fun th -> if th.status = Wait_work then th.status <- Finished)
          team.threads
      else deadlock_diagnosis team
  done;
  t.cur_team <- prev

(* ------------------------------------------------------------------ *)
(* Kernel launch                                                       *)
(* ------------------------------------------------------------------ *)

(* Latency hiding degrades as register pressure reduces the number of
   resident warps per SM: time scales with (max_warps / active_warps)^0.75,
   a standard throughput approximation.  This is what turns the legacy
   builds' register bloat (Fig. 10) into their slowdown (Fig. 11). *)
let occupancy_factor machine regs =
  let regfile = machine.Machine.registers_per_sm in
  let max_warps = float_of_int machine.Machine.max_warps_per_sm in
  let active =
    Float.max 1.0
      (Float.min max_warps (float_of_int regfile /. (float_of_int (max 16 regs) *. 32.0)))
  in
  Float.pow (max_warps /. active) 0.75

let launch_kernel t (kernel : Func.t) (args : Rvalue.t list) =
  let info =
    match kernel.Func.kernel with
    | Some k -> k
    | None -> error "@%s is not a kernel" kernel.Func.name
  in
  let nteams =
    match info.Func.num_teams with Some n -> n | None -> t.machine.Machine.default_teams
  in
  let nthreads =
    min t.machine.Machine.max_threads_per_team
      (match info.Func.num_threads with
      | Some n -> n
      | None -> t.machine.Machine.default_threads)
  in
  let stats =
    {
      kernel_name = kernel.Func.name;
      cycles = 0;
      team_cycles_total = 0;
      instructions = 0;
      loads_global = 0;
      loads_shared = 0;
      loads_local = 0;
      stores_global = 0;
      stores_shared = 0;
      stores_local = 0;
      atomics_global = 0;
      atomics_shared = 0;
      divergent_branches = 0;
      runtime_calls = 0;
      barriers = 0;
      indirect_calls = 0;
      shared_bytes = 0;
      shared_fallbacks = 0;
      heap_high_water = 0;
      registers = Regalloc.estimate t.m kernel;
      teams = nteams;
      threads_per_team = nthreads;
    }
  in
  t.kernel_stats <- stats :: t.kernel_stats;
  t.cur_stats <- Some stats;
  (* track the heap high-water mark of this launch alone *)
  t.mem.Mem.heap_high_water <- t.mem.Mem.heap_in_use;
  let plan = plan_of t kernel and args = Array.of_list args in
  let is_spmd = info.Func.exec_mode = Func.Spmd in
  let is_cuda = Func.has_attr kernel Func.Cuda_kernel in
  let max_team_shared = ref 0 in
  for team_idx = 0 to nteams - 1 do
    let team_uid = Support.Util.Id_gen.fresh t.team_uid_gen in
    let threads =
      Array.init nthreads (fun tid ->
          {
            gid = (team_uid * t.machine.Machine.max_threads_per_team) + tid;
            tid;
            stack = [];
            status = Runnable;
            clock = 0;
            local_sp = 0;
            level = 0;
            last_work_gen = 0;
            wake_value = Undef;
            blocked_reg = -1;
            wait_wants_id = false;
            barrier_site = "";
            heap_live = 0;
            site_execs = [||];
          })
    in
    let team =
      {
        team_idx;
        team_uid;
        threads;
        shared_sp = t.mem.Mem.static_shared_size;
        shared_high = t.mem.Mem.static_shared_size;
        work = None;
        work_gen = 0;
        join_pending = 0;
        terminating = false;
        barrier_waiting = [];
        exec_spmd = is_spmd;
        is_cuda;
        uncoalesced = [];
        branch_first = [||];
        launch_teams = nteams;
        launch_threads = nthreads;
      }
    in
    Array.iter (fun th -> push_frame th ~kind:Normal ~ret_reg:(-1) plan args) threads;
    run_team t team;
    let team_time = Array.fold_left (fun acc th -> max acc th.clock) 0 threads in
    stats.team_cycles_total <- stats.team_cycles_total + team_time;
    if team.shared_high > !max_team_shared then max_team_shared := team.shared_high;
    (* the team's shared and local memory dies with it *)
    Mem.drop_shared t.mem team_uid;
    Array.iter (fun th -> Mem.drop_local t.mem th.gid) threads
  done;
  stats.shared_bytes <- !max_team_shared;
  (* keep the larger of the concurrency-scaled footprint (recorded at the
     allocation sites) and the arena's own high-water mark *)
  stats.heap_high_water <- max stats.heap_high_water t.mem.Mem.heap_high_water;
  let concurrent = max 1 (min nteams t.machine.Machine.num_sms) in
  stats.cycles <-
    int_of_float
      (float_of_int stats.team_cycles_total /. float_of_int concurrent
      *. occupancy_factor t.machine stats.registers)

let () = launch_hook := launch_kernel

(* ------------------------------------------------------------------ *)
(* Host execution                                                      *)
(* ------------------------------------------------------------------ *)

(* The host runs as a single-thread pseudo-team so that stray runtime calls
   (tracing, math) behave; kernels are launched on direct calls to kernel
   functions. *)
let run_host t =
  let f = Irmod.find_func_exn t.m "main" in
  let host_thread =
    {
      gid = -1;
      tid = 0;
      stack = [];
      status = Runnable;
      clock = 0;
      local_sp = 0;
      level = 0;
      last_work_gen = 0;
      wake_value = Undef;
      blocked_reg = -1;
      wait_wants_id = false;
      barrier_site = "";
      heap_live = 0;
      site_execs = [||];
    }
  in
  push_frame host_thread ~kind:Normal ~ret_reg:(-1) (plan_of t f) [||];
  (* host executes outside any team; kernel launches install their own *)
  let continue_ = ref true in
  while !continue_ do
    run_thread t None host_thread;
    match host_thread.status with
    | Finished -> continue_ := false
    | Runnable -> ()
    | _ ->
      sim_error
        (Fault.Ompgpu_error.Deadlock { barrier = "<host>" })
        "host thread blocked on a device synchronization primitive"
  done;
  ()

(* Total modeled GPU kernel time of all launches (the nvprof metric). *)
let total_kernel_cycles t =
  List.fold_left (fun acc s -> acc + s.cycles) 0 t.kernel_stats

let trace_values t = List.rev t.trace

let max_shared_bytes t =
  List.fold_left (fun acc s -> max acc s.shared_bytes) 0 t.kernel_stats

let max_registers t = List.fold_left (fun acc s -> max acc s.registers) 0 t.kernel_stats
