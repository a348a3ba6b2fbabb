(* The simulated memory subsystem: one global space (module globals + device
   heap), one shared space per team, one local space per thread.

   Cross-thread access to local memory reproduces real GPU behaviour: local
   memory is addressed per thread, so dereferencing another thread's local
   pointer silently reads the *current* thread's local memory at the same
   offset.  This is exactly why the paper's Figure 3 program miscompiles
   under the legacy SPMD fast path; the simulator counts these accesses so
   tests can assert on them.

   Every store records a dirty high-water mark (per shared/local arena; two
   marks for the global arena — module-globals region and heap region — so
   one heap store does not mark the whole span dirty).  When a [Scratch.t]
   is attached, released arenas carry their dirty extent back to the pool,
   which re-zeroes only those bytes on reuse; bytes beyond a mark were
   never written and are still zero.  The batch path thus skips nearly all
   of the tens of MBs a fresh [Bytes.make] must fill per job, with results
   byte-identical to the allocate-per-job path.

   An access costs no table lookup and allocates nothing: the offset into
   an arena is always the pointer's [addr], and the running team's and
   thread's arenas sit in one-entry caches in front of their tables. *)

open Rvalue

(* A shared/local arena plus the high end of its written span. *)
type arena = { ab : Bytes.t; mutable ahigh : int }

(* The shared or the local arenas by owner, and the last one resolved
   ([no_owner] when none; a release clears it). *)
type arenas = {
  table : (int, arena) Hashtbl.t;
  mutable last_owner : int;
  mutable last : arena;
}

type t = {
  machine : Machine.t;
  injector : Fault.Injector.t;
  (* arena recycler of the owning pool worker; None = allocate-per-job *)
  scratch : Scratch.t option;
  global : Bytes.t;
  shareds : arenas;  (* by team *)
  locals : arenas;  (* by thread *)
  globals_layout : (string, int) Hashtbl.t;  (* global-space globals *)
  shared_layout : (string, int) Hashtbl.t;  (* shared-space globals, per-team offsets *)
  mutable globals_size : int;
  mutable static_shared_size : int;
  heap_base : int;
  mutable heap_cursor : int;
  mutable heap_free : (int * int) list;  (* (addr, size) free blocks *)
  mutable heap_in_use : int;
  mutable heap_high_water : int;
  mutable gdirty_low : int;  (* high end of stores below heap_base *)
  mutable gdirty_heap : int;  (* high end of stores at/above heap_base *)
  mutable cross_local_accesses : int;
  (* address ranges of small read-mostly global arrays assumed resident in
     the read-only cache (the simulator has no cache hierarchy; arrays up to
     [cache_threshold] get the cached latency) *)
  mutable cached_ranges : (int * int) list;
}

exception Out_of_memory of string

let no_owner = min_int
let no_arena = { ab = Bytes.empty; ahigh = 0 }
let arenas n = { table = Hashtbl.create n; last_owner = no_owner; last = no_arena }

let create ?(injector = Fault.Injector.none) ?scratch (machine : Machine.t) =
  let heap_base = machine.Machine.global_bytes - machine.Machine.heap_bytes in
  {
    machine;
    injector;
    scratch;
    global =
      (match scratch with
      | Some s -> Scratch.take_global s machine.Machine.global_bytes
      | None -> Bytes.make machine.Machine.global_bytes '\000');
    shareds = arenas 16;
    locals = arenas 64;
    globals_layout = Hashtbl.create 16;
    shared_layout = Hashtbl.create 16;
    globals_size = 0;
    static_shared_size = 0;
    heap_base;
    heap_cursor = heap_base;
    heap_free = [];
    heap_in_use = 0;
    heap_high_water = 0;
    gdirty_low = 0;
    gdirty_heap = heap_base;
    cross_local_accesses = 0;
    cached_ranges = [];
  }

(* Lay out module globals.  Global-space globals share one arena; shared-
   space globals (created by HeapToShared) get per-team offsets replicated in
   every team's shared memory. *)
let cache_threshold = 32 * 1024

let layout_module t (m : Ir.Irmod.t) =
  let place_global (g : Ir.Irmod.global) =
    match g.Ir.Irmod.gspace with
    | Ir.Types.Global | Ir.Types.Generic ->
      let size = max 1 (Ir.Types.size_of g.Ir.Irmod.gty) in
      let addr = Support.Util.round_up_to t.globals_size ~multiple:8 in
      Hashtbl.replace t.globals_layout g.Ir.Irmod.gname addr;
      if size <= cache_threshold then t.cached_ranges <- (addr, addr + size) :: t.cached_ranges;
      t.globals_size <- addr + size
    | Ir.Types.Shared ->
      let size = max 1 (Ir.Types.size_of g.Ir.Irmod.gty) in
      let addr = Support.Util.round_up_to t.static_shared_size ~multiple:8 in
      Hashtbl.replace t.shared_layout g.Ir.Irmod.gname addr;
      t.static_shared_size <- addr + size
    | Ir.Types.Local ->
      raise (Sim_error ("global in local space: " ^ g.Ir.Irmod.gname))
  in
  List.iter place_global m.Ir.Irmod.globals;
  if t.globals_size > t.heap_base then
    raise (Out_of_memory "module globals exceed global memory")

(* The owner's arena, made with [fresh] on first use; only a miss of the
   one-entry cache reaches the table. *)
let lookup arenas owner fresh =
  let a =
    match Hashtbl.find_opt arenas.table owner with
    | Some a -> a
    | None ->
      let a = { ab = fresh (); ahigh = 0 } in
      Hashtbl.replace arenas.table owner a;
      a
  in
  arenas.last_owner <- owner;
  arenas.last <- a;
  a

let shared_of t team =
  if team = t.shareds.last_owner then t.shareds.last
  else
    lookup t.shareds team (fun () ->
        let size = t.machine.Machine.shared_bytes_per_team in
        match t.scratch with
        | Some s -> Scratch.take_shared s size
        | None -> Bytes.make size '\000')

let local_of t thread =
  if thread = t.locals.last_owner then t.locals.last
  else
    lookup t.locals thread (fun () ->
        let size = t.machine.Machine.local_bytes_per_thread in
        match t.scratch with
        | Some s -> Scratch.take_local s size
        | None -> Bytes.make size '\000')

let forget arenas =
  arenas.last_owner <- no_owner;
  arenas.last <- no_arena

(* Drop a team's / thread's arena; with a scratch attached the bytes go
   back to the pool (with their dirty extent) for the next launch instead
   of to the GC. *)
let drop arenas owner give =
  match Hashtbl.find_opt arenas.table owner with
  | None -> ()
  | Some a ->
    Hashtbl.remove arenas.table owner;
    if owner = arenas.last_owner then forget arenas;
    give a

let release_shared t team =
  drop t.shareds team (fun a ->
      Option.iter (fun s -> Scratch.give_shared s a.ab ~dirty:a.ahigh) t.scratch)

let release_local t thread =
  drop t.locals thread (fun a ->
      Option.iter (fun s -> Scratch.give_local s a.ab ~dirty:a.ahigh) t.scratch)

(* Hand every arena (including the global one) back to the scratch; the
   memory must not be used afterwards. *)
let release t =
  match t.scratch with
  | None -> ()
  | Some s ->
    Scratch.give_global s t.global
      ~ranges:
        [ (0, min t.gdirty_low t.heap_base); (t.heap_base, t.gdirty_heap - t.heap_base) ];
    Hashtbl.iter (fun _ a -> Scratch.give_shared s a.ab ~dirty:a.ahigh) t.shareds.table;
    Hashtbl.iter (fun _ a -> Scratch.give_local s a.ab ~dirty:a.ahigh) t.locals.table;
    Hashtbl.reset t.shareds.table;
    Hashtbl.reset t.locals.table;
    forget t.shareds;
    forget t.locals

(* The bytes backing a pointer for the accessing thread; the offset into
   them is the pointer's [addr]. *)
let resolve t ~current (p : ptr) =
  match p.sp with
  | Sglobal -> t.global
  | Sshared team -> (shared_of t team).ab
  | Slocal owner ->
    if owner <> current then begin
      t.cross_local_accesses <- t.cross_local_accesses + 1;
      (* local memory is thread-addressed: we read our own frame *)
      (local_of t current).ab
    end
    else (local_of t owner).ab

(* Like [resolve], but records the written span's high end. *)
let resolve_store t ~current (p : ptr) size =
  match p.sp with
  | Sglobal ->
    let hi = p.addr + size in
    if p.addr < t.heap_base then begin
      if hi > t.gdirty_low then t.gdirty_low <- hi
    end
    else if hi > t.gdirty_heap then t.gdirty_heap <- hi;
    t.global
  | Sshared team ->
    let a = shared_of t team in
    if p.addr + size > a.ahigh then a.ahigh <- p.addr + size;
    a.ab
  | Slocal owner ->
    let owner =
      if owner <> current then begin
        t.cross_local_accesses <- t.cross_local_accesses + 1;
        current
      end
      else owner
    in
    let a = local_of t owner in
    if p.addr + size > a.ahigh then a.ahigh <- p.addr + size;
    a.ab

(* ------------------------------------------------------------------ *)
(* Typed access                                                        *)
(* ------------------------------------------------------------------ *)

(* pointers are serialized as tag(2) | owner(22) | addr(40) *)
let encode_ptr (p : ptr) =
  let tag, owner =
    match p.sp with Sglobal -> (0, 0) | Sshared o -> (1, o) | Slocal o -> (2, o + 1)
  in
  Int64.(
    logor
      (shift_left (of_int tag) 62)
      (logor (shift_left (of_int owner) 40) (of_int (p.addr land 0xFFFFFFFFFF))))

let decode_ptr v =
  let tag = Int64.(to_int (shift_right_logical v 62)) in
  let owner = Int64.(to_int (logand (shift_right_logical v 40) 0x3FFFFFL)) in
  let addr = Int64.(to_int (logand v 0xFFFFFFFFFFL)) in
  match tag with
  | 0 -> { sp = Sglobal; addr }
  | 1 -> { sp = Sshared owner; addr }
  | 2 -> { sp = Slocal (owner - 1); addr }
  | _ -> error "corrupt pointer bits %Lx" v

let check_bounds bytes off size what =
  if off < 0 || off + size > Bytes.length bytes then
    error "out-of-bounds %s at offset %d (size %d, arena %d)" what off size
      (Bytes.length bytes)

let read t ~current (p : ptr) (ty : Ir.Types.t) : Rvalue.t =
  let bytes = resolve t ~current p and off = p.addr in
  let size = Ir.Types.size_of ty in
  check_bounds bytes off size "load";
  match ty with
  | Ir.Types.I1 | Ir.Types.I8 ->
    of_int64 (truncate_to ty (Int64.of_int (Char.code (Bytes.get bytes off))))
  | Ir.Types.I32 -> of_int64 (Int64.of_int32 (Bytes.get_int32_le bytes off))
  | Ir.Types.I64 -> of_int64 (Bytes.get_int64_le bytes off)
  | Ir.Types.F32 -> F (Int32.float_of_bits (Bytes.get_int32_le bytes off))
  | Ir.Types.F64 -> F (Int64.float_of_bits (Bytes.get_int64_le bytes off))
  | Ir.Types.Ptr _ -> P (decode_ptr (Bytes.get_int64_le bytes off))
  | Ir.Types.Void | Ir.Types.Arr _ | Ir.Types.Fn _ ->
    error "load of type %s" (Ir.Types.to_string ty)

let write t ~current (p : ptr) (ty : Ir.Types.t) (v : Rvalue.t) =
  let size = Ir.Types.size_of ty in
  let bytes = resolve_store t ~current p size and off = p.addr in
  check_bounds bytes off size "store";
  match ty with
  | Ir.Types.I1 | Ir.Types.I8 ->
    Bytes.set bytes off (Char.chr (Int64.to_int (Int64.logand (as_int v) 0xFFL)))
  | Ir.Types.I32 -> Bytes.set_int32_le bytes off (Int64.to_int32 (as_int v))
  | Ir.Types.I64 -> Bytes.set_int64_le bytes off (as_int v)
  | Ir.Types.F32 -> Bytes.set_int32_le bytes off (Int32.bits_of_float (as_float v))
  | Ir.Types.F64 -> Bytes.set_int64_le bytes off (Int64.bits_of_float (as_float v))
  | Ir.Types.Ptr _ -> (
    match v with
    | P ptr -> Bytes.set_int64_le bytes off (encode_ptr ptr)
    | I 0L | Undef -> Bytes.set_int64_le bytes off 0L
    | Fn _ -> error "storing a function pointer to memory is not supported"
    | _ -> Bytes.set_int64_le bytes off (as_int v))
  | Ir.Types.Void | Ir.Types.Arr _ | Ir.Types.Fn _ ->
    error "store of type %s" (Ir.Types.to_string ty)

(* ------------------------------------------------------------------ *)
(* Device heap (globalization fallback allocations)                    *)
(* ------------------------------------------------------------------ *)

let heap_alloc t size =
  if Fault.Injector.fire t.injector Fault.Injector.Mem_alloc then
    raise
      (Out_of_memory
         (Printf.sprintf "injected device-heap allocation failure (site %s, %d bytes)"
            (Fault.Injector.site_name Fault.Injector.Mem_alloc)
            size));
  let size = Support.Util.round_up_to (max 8 size) ~multiple:8 in
  let addr =
    (* first-fit in the free list *)
    let rec find acc = function
      | [] -> None
      | (a, s) :: rest when s >= size ->
        t.heap_free <- List.rev_append acc rest;
        Some a
      | blk :: rest -> find (blk :: acc) rest
    in
    match find [] t.heap_free with
    | Some a -> a
    | None ->
      let a = t.heap_cursor in
      if a + size > t.machine.Machine.global_bytes then
        raise
          (Out_of_memory
             (Printf.sprintf "device heap exhausted (%d bytes in use, %d requested)"
                t.heap_in_use size));
      t.heap_cursor <- a + size;
      a
  in
  t.heap_in_use <- t.heap_in_use + size;
  if t.heap_in_use > t.heap_high_water then t.heap_high_water <- t.heap_in_use;
  ({ sp = Sglobal; addr }, size)

let heap_free_block t addr size =
  let size = Support.Util.round_up_to (max 8 size) ~multiple:8 in
  t.heap_free <- (addr, size) :: t.heap_free;
  t.heap_in_use <- max 0 (t.heap_in_use - size)

let rec in_ranges addr = function
  | [] -> false
  | (a, b) :: rest -> (addr >= a && addr < b) || in_ranges addr rest

let is_cached t addr = in_ranges addr t.cached_ranges
