(** The compile-fleet front-end: one socket, N supervised daemon shards.

    [mompd route] grows the single supervised daemon (PR 5) into a fleet:
    each shard is a full {!Supervisor}+{!Journal}+{!Server} stack on its
    own socket and state directory, and the router is the only address
    clients see.  Requests are sharded by {!Ompgpu_api.cache_key} over a
    consistent-hash {!Ring}, so a given (file, config, source) always
    lands on the same shard and each shard's warm in-memory cache stays
    hot and disjoint; all shards share one content-addressed disk tier
    ([--cache-dir]), so a failover miss is usually still a disk hit.

    {b Byte-identity.}  The router never re-encodes a compile: it parses
    a {e copy} of the request line for routing (key, tenant) and relays
    the client's original bytes to the shard, then relays the shard's
    response line back verbatim.  A reply routed through the fleet is
    byte-identical to one from a lone daemon, which is byte-identical to
    [mompc] — the invariant every layer above relies on.

    {b Health.}  A prober thread drives each shard through a state
    machine ([up] → [degraded] → [down]) on consecutive health-probe
    failures, and a monitor thread respawns dead shards with the
    supervisor's own jittered backoff.  A shard that needs more than
    [max_respawns] respawns inside [respawn_window_s] is {e ejected} —
    taken out of the ring's candidate set — and re-admitted (as [down],
    to be probed back up) after [eject_cooldown_s].

    {b Failover.}  A request whose primary shard is down walks the ring's
    preference order to the next live shard — cold for that key but
    correct, and usually warm from the shared disk tier.  When every
    shard is unreachable (or sheds), the router compiles in-process
    ({!Ompgpu_api.compile_buffered}) — byte-identical by construction —
    so a client never sees a transport failure the fleet could absorb:
    kill -9 a shard under load and every in-flight request still settles
    with the right bytes.

    {b Admission.}  A per-tenant fair queue sits in front of the shards'
    own overload shed: each tenant's in-flight share is bounded by
    [capacity / active_tenants] (at least 1), excess waits briefly for
    capacity, and only a wait that outlives [queue_deadline_s] is shed
    with the structured [Overload] clients already know how to retry.  A
    greedy tenant cannot starve a quiet one.

    {b Connections and drain.}  The router is a dispatch behind an
    {!Endpoint}, the same connection path a lone {!Server} answers
    through, so both answer hostile input byte for byte alike.  It arms
    none of the endpoint's fault sites.  A [shutdown] request or {!stop}
    drains as the daemon does: compiles arriving afterwards are shed with
    [Overload], and replies already being relayed are delivered (bounded
    by the daemon's default 5s drain deadline) before the backends
    stop. *)

(** One shard as the router drives it: how to (re)start and stop it, and
    how to observe liveness.  A record, not a class, so tests can build
    deliberately flaky backends.  [start] must be safe to call again
    after the process/thread behind it died (that is the respawn path);
    [alive] is polled only from the router's monitor thread, so a
    [waitpid]-based implementation needs no locking. *)
type backend = {
  name : string;  (** stable shard name; the ring hashes it *)
  socket_path : string;  (** where the shard's server listens *)
  start : unit -> unit;
  stop : unit -> unit;
  alive : unit -> bool;
  pid : unit -> int option;  (** subprocess shards report their pid *)
}

val inproc_backend : Supervisor.config -> name:string -> backend
(** A shard running as a supervisor on a thread inside this process —
    what tests, benches and the corpus driver use ([kill -9] scenarios
    need [mompd route]'s subprocess shards instead).  [alive] is true
    while the supervisor loop runs; [start] spawns a fresh thread. *)

(** Per-tenant fair-queue admission, exposed for deterministic tests. *)
module Admission : sig
  type t

  type outcome =
    | Admitted
    | Shed of { pending : int; capacity : int }
        (** the wait outlived the queue deadline *)

  val create : capacity:int -> queue_deadline_s:float -> t

  val acquire : t -> tenant:string -> outcome
  (** Block (bounded by the queue deadline) until the tenant may hold one
      more in-flight request: total in-flight below [capacity] {e and}
      this tenant below its share, [max 1 (capacity / active_tenants)]
      where a tenant is active while it has requests in flight or
      waiting.  Fairness over raw throughput: a tenant pinned at its
      share leaves headroom the moment a second tenant shows up. *)

  val release : t -> tenant:string -> unit
  (** Return the slot taken by a successful [acquire]. *)

  val in_flight : t -> int
end

type config = {
  socket_path : string;  (** the router's own listening socket *)
  capacity : int;  (** fleet-wide admitted-compile bound *)
  queue_deadline_s : float;  (** max fair-queue wait before shedding *)
  probe_interval_s : float;
  max_respawns : int;  (** respawns tolerated per 10s window before ejection *)
  eject_cooldown_s : float;
  injector : Fault.Injector.t;
      (** arms [shard-down], [probe-timeout] and [ring-skew]; the
          server's sites never fire at the router *)
  log : string -> unit;
}

val default_config : config
(** [./mompd-router.sock]; capacity 16; 250ms queue deadline; probes
    every 200ms; 3 respawns per window, 2s ejection cooldown; no faults;
    silent log.  Fixed for every router: a 30s relay deadline, a 1s probe
    deadline, [degraded] after 1 failed probe and [down] after 2, a 10s
    respawn window, and {!Ring.vnodes} ring points per shard. *)

type t

val create : config -> backend list -> t
(** Bind the router's socket, build the ring over the backends' names,
    and [start] every backend.  Shards boot as [down] and are probed up.
    Raises [Invalid_argument] on an empty backend list, [Unix.Unix_error]
    if the socket cannot be bound. *)

val serve_forever : t -> unit
(** Run the prober, the monitor and the accept loop until a [shutdown]
    request or {!stop}; then drain, stop every backend and release the
    socket. *)

val stop : t -> unit
(** Idempotent; safe from a signal handler. *)

val fleet_json : t -> Observe.Json.t
(** The fleet document served to a [fleet] request (schema 2): the ring
    shape, the router's own counters (routed, failovers, in-process
    fallbacks, quota sheds), and one entry per shard — name, socket, pid,
    health state, probe/respawn counters, and the shard's live [stats]
    document when it is reachable.  docs/FLEET.md and docs/API.md
    specify the members; test/test_fleet.ml pins them. *)
