(** Content-addressed, domain-safe result cache with optional LRU bounds.

    Keys are digests of job *content* — for pipeline jobs, the printed IR
    module text plus the pass-option fingerprint (plus machine/scale salts;
    see docs/SCHEDULER.md for the exact key definition) — so identical
    inputs hit regardless of which file, app or batch slot produced them.
    Values are whatever the job computes (pipeline report, optimized IR
    text, a full measurement).

    All operations are thread-safe.  Two domains that miss the same key
    concurrently both compute; the first insertion wins and both count as
    misses (values are equal by the determinism contract, so which one is
    kept is unobservable).

    Governance: with [?max_entries] and/or [?max_bytes] the cache is a
    strict LRU — request-path reads refresh recency, inserts evict from
    the least-recently-used end until both caps hold, and evictions are
    counted.  Without caps nothing is ever evicted ([create ()] behaves
    exactly as before governance). *)

type 'a t

val create :
  ?max_entries:int -> ?max_bytes:int -> ?size_of:('a -> int) -> unit -> 'a t
(** [max_entries] caps the entry count; [max_bytes] caps the sum of
    [size_of v] over cached values (approximate payload bytes — the
    default [size_of] is [fun _ -> 0], so a byte cap without a [size_of]
    never evicts).  A single value larger than [max_bytes] is computed
    and returned but not retained. *)

val key : string list -> string
(** Digest (hex) of the concatenated parts, separator-framed so that part
    boundaries cannot collide. *)

val find_or_compute : 'a t -> key:string -> (unit -> 'a) -> 'a
(** Return the cached value for [key] (refreshing its recency), or run
    the thunk (outside the cache lock), memoize and return its result.
    A raising thunk caches nothing. *)

val replace : 'a t -> key:string -> 'a -> unit
(** Atomically overwrite (or insert) [key]'s entry.  Concurrent readers
    see the old or the new value, never a torn one; hit/miss counters are
    untouched.  Used by the daemon's tier-upgrade path to promote a
    fast-tier entry to the full-pipeline result — when the fast entry was
    evicted mid-upgrade the promotion re-inserts it, so the entry still
    converges to the full-pipeline bytes. *)

val peek : 'a t -> key:string -> 'a option
(** Counter- and recency-neutral lookup: like a read under
    {!find_or_compute}'s lock but without touching the hit/miss
    accounting or the LRU order, so inspecting a cache (as the tests do)
    never changes what it evicts.  Nothing on the request path or the
    upgrade path calls it. *)

val hits : 'a t -> int

val misses : 'a t -> int

val hit_rate : 'a t -> float
(** [hits / (hits + misses)]; [0.] before any lookup. *)

val length : 'a t -> int

val bytes : 'a t -> int
(** Current sum of [size_of v] over cached values (0 without a
    [size_of]). *)

val evictions : 'a t -> int
(** Entries evicted by the caps since [create]. *)

val max_entries : 'a t -> int option
val max_bytes : 'a t -> int option

val reset_counters : 'a t -> unit
(** Zero the hit/miss counters, keeping the cached entries — used to
    measure the hit rate of one warm batch in isolation. *)
