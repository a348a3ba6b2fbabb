(** Consistent-hash ring over compile-fleet shards.

    The router shards requests by {!Ompgpu_api.cache_key} so each shard's
    warm in-memory cache stays hot and disjoint: the same key always lands
    on the same shard, and removing one shard from a [k]-shard fleet
    remaps only ~[1/k] of the key space (the vnodes owned by the departed
    shard) — every other key keeps its warm primary.

    A ring is immutable and pure: shard membership changes (a shard going
    down, coming back, being ejected) are expressed by *filtering* the
    preference order {!order} returns, never by rebuilding the ring — this
    is what makes the remap minimal and the routing deterministic under
    churn. *)

type t

val create : string list -> t
(** Build a ring over the given shard names (order-insensitive: the ring
    depends only on the set of names).  Each shard owns {!vnodes} points
    placed by hashing ["name#i"], so load spreads evenly even with few
    shards.  Raises [Invalid_argument] on an empty or duplicate-bearing
    name list. *)

val vnodes : int
(** 64 — small enough to walk cheaply, even enough for single-digit
    fleets. *)

val shards : t -> string array
(** The shard names, sorted; indices returned by {!order} index this
    array. *)

val order : t -> string -> int list
(** The full preference order for a key: every shard index exactly once,
    starting at the key's primary and continuing around the ring.  The
    router filters this by shard health — the first live entry is where
    the request goes, the rest are its failover ladder.  Deterministic:
    same ring + same key → same order, across processes and runs. *)
