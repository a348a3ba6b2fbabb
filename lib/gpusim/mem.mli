(** The simulated memory subsystem: one global space (module globals + the
    device heap), one shared space per team, one local space per thread.

    Cross-thread access to local memory reproduces real GPU behaviour:
    local memory is thread-addressed, so dereferencing another thread's
    local pointer silently reads the *current* thread's local memory at the
    same offset — which is exactly how the paper's Figure 3 miscompiles
    under the legacy SPMD fast path.  Such accesses are counted.

    Memory is allocated on first touch: every arena starts empty and grows
    by doubling, up to the size the machine gives its space, when an access
    first reaches past its allocated bytes.  Bytes nobody wrote read as
    zero, and an access outside the space fails naming the machine's full
    size for it, so the simulated semantics are those of fully allocated
    arenas.  The global space keeps one address range — module globals
    from 0, the heap from [heap_base = global_bytes - heap_bytes] — backed
    by two arenas, one on each side of [heap_base].  An access that starts
    below [heap_base] and ends above it (only a pointer into the never-used
    gap between the globals and the heap can make one) is served whole by
    the globals arena: its bytes at and above [heap_base] do not alias the
    heap's first bytes. *)

type arena
(** One space's bytes, allocated on first touch. *)

type arenas
(** Arenas by owner, behind a one-entry cache of the last one resolved (so
    the running team's or thread's access does no table lookup). *)

type t = {
  machine : Machine.t;
  injector : Fault.Injector.t;
  globals : arena;  (** addresses below [heap_base] *)
  heap : arena;  (** addresses from [heap_base] *)
  shareds : arenas;  (** by team *)
  locals : arenas;  (** by thread *)
  globals_layout : (string, int) Hashtbl.t;
  shared_layout : (string, int) Hashtbl.t;
  mutable globals_size : int;
  mutable static_shared_size : int;
  heap_base : int;
  mutable heap_cursor : int;
  mutable heap_free : (int * int) list;
  mutable heap_in_use : int;
  mutable heap_high_water : int;
  mutable cross_local_accesses : int;
  mutable cached_ranges : (int * int) list;
}

exception Out_of_memory of string

val create : ?injector:Fault.Injector.t -> Machine.t -> t
(** Empty memory for [machine]; nothing is allocated until an access.
    [injector] arms the [Mem_alloc] fault site: [heap_alloc] then fails
    deterministically at the injected rate. *)

val drop_shared : t -> int -> unit
(** Forget a finished team's shared arena: a later access through a
    pointer to it sees a fresh, zeroed arena. *)

val drop_local : t -> int -> unit
(** Forget a finished thread's local arena, likewise. *)

val cache_threshold : int
(** Global arrays up to this size get the read-only-cache latency. *)

val layout_module : t -> Ir.Irmod.t -> unit
(** Place module globals: global-space globals from address 0, shared-space
    globals (HeapToShared results) at per-team offsets. *)

val is_cached : t -> int -> bool

val in_ranges : int -> (int * int) list -> bool
(** [in_ranges addr ranges]: [addr] lies in one of the half-open
    [(start, end_)] ranges. *)

val read : t -> current:int -> Rvalue.ptr -> Ir.Types.t -> Rvalue.t
val write : t -> current:int -> Rvalue.ptr -> Ir.Types.t -> Rvalue.t -> unit

val encode_ptr : Rvalue.ptr -> int64
(** Pointers in memory are tag(2) | owner(22) | addr(40). *)

val decode_ptr : int64 -> Rvalue.ptr

val heap_alloc : t -> int -> Rvalue.ptr * int
(** Returns the block and the granted (rounded) size.
    @raise Out_of_memory when the arena itself is exhausted, or when the
    [Mem_alloc] fault site fires. *)

val heap_free_block : t -> int -> int -> unit
