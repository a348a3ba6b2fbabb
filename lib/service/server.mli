(** The persistent compile daemon behind [mompd].

    One server owns a Unix-domain listening socket, a {!Sched.Pool} of
    worker domains, and warm caches shared across every request: an
    in-memory content-addressed result cache plus (optionally) the same
    on-disk cache [mompc --cache-dir] uses — so a repeated compile is a
    cache hit whichever client sends it, and a service restart still
    starts warm from disk.

    Concurrency model: the server is a dispatch behind an {!Endpoint},
    which owns the socket, one thread per connection, the framing and
    the drain — the same connection path the fleet {!Router} answers
    through.  A connection thread calls the dispatch for each valid
    request and blocks on the pool for compile work; compiles themselves
    run on the pool's domains.  The server arms the endpoint's fault
    sites with its [injector].

    Robustness: admission control bounds the number of compile requests
    in flight — request [capacity + 1] is shed immediately with a
    structured [Overload] (exit 40) instead of queueing without bound —
    and an optional per-request watchdog settles a hung compile as a
    structured [Timeout] (exit 24), so one poisoned job never wedges the
    daemon.  Torn, garbage and oversized frames get structured
    [Bad_request] answers (exit 42) from the endpoint and, at worst, a
    severed connection.

    Crash containment: created standalone, the server owns its socket and
    journal and releases both on exit.  Created by {!Supervisor} (with
    [~listener]/[~journal]/[~supervision]), it borrows them — a
    serve-loop crash severs live connections, stops the pool, and
    re-raises with the listening socket still bound, so the supervisor
    restarts the loop without dropping the address.

    Durability: with a [state_dir], every admitted compile is journaled
    ([begin] on admission, [settle] on response — see {!Journal}), and
    the startup recovery scan's counters surface in [health]/[stats].

    Graceful drain: a shutdown request, {!stop}, or SIGTERM-via-[stop]
    flips the endpoint into draining — new compile admissions are shed
    with [Overload], requests already being answered finish (bounded by
    [drain_deadline_s]), then remaining connections are severed, the
    drain is journaled and the pool stops. *)

type config = {
  socket_path : string;
  domains : int;  (** pool worker domains (at least 1) *)
  capacity : int;
      (** max compile requests admitted concurrently; 0 sheds everything
          (useful to test client backoff) *)
  watchdog_s : float option;  (** per-request wall-time bound *)
  cache_dir : string option;  (** warm the disk cache shared with [mompc] *)
  state_dir : string option;  (** request journal + recovery scan home *)
  injector : Fault.Injector.t;
      (** arms the service fault sites ([conn-drop], [partial-frame],
          [slow-client], [daemon-kill]) for the chaos harness *)
  drain_deadline_s : float;  (** bound on the graceful-drain wait *)
  tiered : bool;
      (** tiered compilation (docs/SCHEDULER.md): answer cold
          full-pipeline requests from the fast tier, tier-tag the cache
          entry, and let a background worker re-run the full pipeline
          (hottest key first, per-key {!Observe.Hitcount} counts) and
          atomically replace it.  Off by default: fast-tier answers are
          not byte-identical to one-shot [mompc] until the upgrade lands,
          so the byte-identity gates run untiered.  With a [state_dir],
          the per-key hotness profile is checkpointed on drain and on
          mid-life journal rotations, and reloaded at boot. *)
  cache_max_entries : int option;
      (** LRU entry cap on the in-memory result cache (evictions counted
          in the [storage] stats section); [None] = unbounded. *)
  cache_max_bytes : int option;
      (** approximate-byte LRU cap on the in-memory result cache, and the
          byte quota of the disk cache (oldest entries evicted on
          store); [None] = unbounded. *)
  journal_max_bytes : int option;
      (** mid-life journal rotation cap ({!Journal.open_}); [None] =
          rotate only at boot. *)
}

val default_config : config
(** [./mompd.sock], 2 domains, capacity [4 * domains], no watchdog, no
    disk cache, no journal, no injected faults, 5s drain deadline, not
    tiered, every storage cap unbounded. *)

(** Restart/breaker counters shared between a {!Supervisor} and every
    incarnation it creates; read by [health] and [stats] answers.
    [on_journal_rotate] is the current incarnation's profile-checkpoint
    hook — the journal outlives servers, so its rotation callback
    indirects through here. *)
type supervision = {
  mutable restarts : int;
  mutable breaker_open : bool;
  mutable last_crash : string option;
  mutable on_journal_rotate : unit -> unit;
}

val new_supervision : unit -> supervision

type t

val create :
  ?listener:Endpoint.listener ->
  ?journal:Journal.t * Journal.recovery ->
  ?supervision:supervision ->
  config ->
  t
(** Standalone (no optionals): bind the socket, open the journal from
    [state_dir], spawn the pool; the server releases what it opened.
    Supervised: borrow the given listener/journal/supervision — they
    survive this incarnation.  Raises [Unix.Unix_error] if the socket
    cannot be bound. *)

val serve_forever : t -> unit
(** Accept and serve until a [shutdown] request (or {!stop}) arrives,
    then drain gracefully (see the module header).  A serve-loop crash
    severs connections, stops the pool, and re-raises for the supervisor;
    owned resources (standalone mode) are always released. *)

val stop : t -> unit
(** Ask the accept loop to exit and the server to drain, as if a shutdown
    request had arrived.  Thread-safe, idempotent, and safe from a signal
    handler; [serve_forever] still performs the drain. *)

val stats_json : t -> Observe.Json.t
(** The live counters served to a [stats] request (schema 2): requests
    by kind and outcome, shed count, cache hit/miss/entries, pool
    statistics, uptime, a ["tiers"] object (enabled flag, fast-tier
    answers served, distinct hot keys, upgrade queue depth and
    queued/done/failed counts, profile keys restored at boot and
    checkpoints written), a ["storage"] object (in-memory cache
    entries/bytes/evictions + caps, disk-cache ledger bytes/entries,
    evictions, scrub/quarantine counts, store failures, write-breaker
    state, journal rotations — see docs/API.md) and a ["service"] object
    (restarts, breaker, draining, journal-replay counters, swept temp
    files, injected drops). *)

val health_json : t -> Observe.Json.t
(** The [health] answer (schema 2): ["status"] ("ok"/"draining"),
    protocol version, uptime, in-flight count, capacity, plus the same
    members as the ["service"] stats object. *)
