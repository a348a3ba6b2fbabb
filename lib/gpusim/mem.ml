(* The simulated memory subsystem: one global space (module globals + device
   heap), one shared space per team, one local space per thread.

   Cross-thread access to local memory reproduces real GPU behaviour: local
   memory is addressed per thread, so dereferencing another thread's local
   pointer silently reads the *current* thread's local memory at the same
   offset.  This is exactly why the paper's Figure 3 program miscompiles
   under the legacy SPMD fast path; the simulator counts these accesses so
   tests can assert on them.

   Memory is allocated on first touch.  Every arena starts empty and, when
   an access first reaches past its allocated bytes, grows by doubling (up
   to the size the machine gives the space); bytes never allocated were
   never written and read as zero, exactly as in a fully allocated arena.
   A run therefore pays for the KBs it touches, not for the machine's MBs.
   The global space keeps the device addresses of a single arena — module
   globals from 0, the heap from [global_bytes - heap_bytes] — but backs
   them with two arenas, so a heap access does not allocate the unused gap
   below the heap.

   An access costs no table lookup and allocates nothing once its arena has
   grown far enough: the running team's and thread's arenas sit in
   one-entry caches in front of their tables. *)

open Rvalue

(* The bytes of [base, base + length ab) of a space whose addresses run
   over [0, size). *)
type arena = { mutable ab : Bytes.t; base : int; size : int }

(* The shared or the local arenas by owner, and the last one resolved
   ([no_owner] when none; a drop clears it). *)
type arenas = {
  table : (int, arena) Hashtbl.t;
  arena_size : int;
  mutable last_owner : int;
  mutable last : arena;
}

type t = {
  machine : Machine.t;
  injector : Fault.Injector.t;
  globals : arena;  (* addresses below heap_base *)
  heap : arena;  (* addresses from heap_base *)
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
  mutable cross_local_accesses : int;
  (* address ranges of small read-mostly global arrays assumed resident in
     the read-only cache (the simulator has no cache hierarchy; arrays up to
     [cache_threshold] get the cached latency) *)
  mutable cached_ranges : (int * int) list;
}

exception Out_of_memory of string

(* The first allocation of an arena; each later one doubles it. *)
let initial_bytes = 256

let arena ~base size = { ab = Bytes.empty; base; size }
let no_owner = min_int
let no_arena = arena ~base:0 0

let arenas n arena_size =
  { table = Hashtbl.create n; arena_size; last_owner = no_owner; last = no_arena }

let create ?(injector = Fault.Injector.none) (machine : Machine.t) =
  let global_bytes = machine.Machine.global_bytes in
  let heap_base = global_bytes - machine.Machine.heap_bytes in
  {
    machine;
    injector;
    globals = arena ~base:0 global_bytes;
    heap = arena ~base:heap_base global_bytes;
    shareds = arenas 16 machine.Machine.shared_bytes_per_team;
    locals = arenas 64 machine.Machine.local_bytes_per_thread;
    globals_layout = Hashtbl.create 16;
    shared_layout = Hashtbl.create 16;
    globals_size = 0;
    static_shared_size = 0;
    heap_base;
    heap_cursor = heap_base;
    heap_free = [];
    heap_in_use = 0;
    heap_high_water = 0;
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

(* The owner's arena, made empty on first use; only a miss of the
   one-entry cache reaches the table. *)
let owned arenas owner =
  if owner = arenas.last_owner then arenas.last
  else begin
    let a =
      match Hashtbl.find_opt arenas.table owner with
      | Some a -> a
      | None ->
        let a = arena ~base:0 arenas.arena_size in
        Hashtbl.replace arenas.table owner a;
        a
    in
    arenas.last_owner <- owner;
    arenas.last <- a;
    a
  end

(* Forget a finished team's / thread's arena: a later launch reusing the
   owner id starts from zeroed memory, and the GC takes the bytes. *)
let drop arenas owner =
  Hashtbl.remove arenas.table owner;
  if owner = arenas.last_owner then begin
    arenas.last_owner <- no_owner;
    arenas.last <- no_arena
  end

let drop_shared t team = drop t.shareds team
let drop_local t thread = drop t.locals thread

(* The arena backing a pointer for the accessing thread; the offset into
   its bytes is the pointer's [addr] minus the arena's [base]. *)
let resolve t ~current (p : ptr) =
  match p.sp with
  | Sglobal -> if p.addr >= t.heap_base then t.heap else t.globals
  | Sshared team -> owned t.shareds team
  | Slocal owner ->
    if owner <> current then begin
      t.cross_local_accesses <- t.cross_local_accesses + 1;
      (* local memory is thread-addressed: we read our own frame *)
      owned t.locals current
    end
    else owned t.locals owner

(* Grow [a] by doubling until it holds its first [hi] bytes. *)
let grow a hi =
  let rec fit n = if n >= hi then n else fit (2 * n) in
  let len = min (fit (max initial_bytes (2 * Bytes.length a.ab))) (a.size - a.base) in
  let b = Bytes.make len '\000' in
  Bytes.blit a.ab 0 b 0 (Bytes.length a.ab);
  a.ab <- b

(* [a]'s bytes, allocated at least up to the end of a [size]-byte access
   at [addr]. *)
let reach a what addr size =
  let hi = addr - a.base + size in
  if addr >= 0 && hi <= Bytes.length a.ab then a.ab
  else if addr < 0 || addr + size > a.size then
    error "out-of-bounds %s at offset %d (size %d, arena %d)" what addr size a.size
  else begin
    grow a hi;
    a.ab
  end

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

let read t ~current (p : ptr) (ty : Ir.Types.t) : Rvalue.t =
  let a = resolve t ~current p in
  let bytes = reach a "load" p.addr (Ir.Types.size_of ty) and off = p.addr - a.base in
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
  let a = resolve t ~current p in
  let bytes = reach a "store" p.addr (Ir.Types.size_of ty) and off = p.addr - a.base in
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
