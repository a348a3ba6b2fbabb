(** Deterministic, seedable fault injection.

    An injector is a set of named sites, each with a firing rate and a seed.
    Every layer that can fail consults its site before the fallible action:
    [fire t site] draws the next pseudo-random coin of that site — a pure
    function of (seed, site, query index), so a run is replayable from its
    seed alone, independent of wall-clock, scheduling or domain count.

    Per-job determinism under the parallel drivers comes from [derive]: the
    batch runner derives a child injector per (job, attempt) tag, so the
    coin sequence a job sees does not depend on how jobs interleave — and a
    *retried* job draws fresh coins, which is what makes bounded retry
    worthwhile against sub-1.0 rates. *)

type site =
  | Mem_alloc  (** device-heap allocation failure in [Gpusim.Mem] *)
  | Shared_budget
      (** shared-memory budget exhaustion in [Gpusim.Interp]: forces the
          paper's heap-fallback path (graceful, counted) instead of abort *)
  | Sim_trap  (** a trap on an executed instruction in [Gpusim.Interp] *)
  | Pass_crash  (** an exception inside [Openmpopt.Pass_manager.run_pipeline] *)
  | Cache_corrupt  (** bit-flip a [Sched.Disk_cache] entry at store time *)
  | Disk_full
      (** fail a [Sched.Disk_cache] store as if the disk were full
          (ENOSPC-shaped: counted, breaker-tripping, never client-visible) *)
  | Pool_stall  (** stall a scheduler job (exercises the pool watchdog) *)
  | Conn_drop
      (** [Service.Server]: drop the connection after reading a request,
          before answering (exercises client reconnect + retry) *)
  | Partial_frame
      (** [Service.Server]: write only a prefix of the response line, then
          drop the connection (exercises client partial-frame recovery) *)
  | Slow_client
      (** [Service.Server]: delay the response (exercises per-request
          client deadlines) *)
  | Daemon_kill
      (** [Service.Server]: crash the serve loop itself after an accept
          (exercises the supervisor's restart-with-backoff path) *)
  | Shard_down
      (** [Service.Router]: treat the hash ring's primary shard as down for
          one request (exercises failover to the next live shard) *)
  | Probe_timeout
      (** [Service.Router]: fail one health probe without contacting the
          shard (exercises the up/degraded/down state machine) *)
  | Ring_skew
      (** [Service.Router]: rotate the ring's preference order for one
          request (exercises cold-but-correct misrouting) *)

val all_sites : site list
val site_name : site -> string
val site_of_name : string -> site option

type spec = { site : site; rate : float; seed : int }

val parse_spec : string -> (spec, string) result
(** Parse ["site[:rate][:seed]"] (e.g. ["mem-alloc:0.5:42"]).  Rate
    defaults to 1.0, seed to 0. *)

val spec_to_string : spec -> string

type t

val none : t
(** The null injector: every [fire] is false, zero overhead. *)

val create : spec list -> t
val is_none : t -> bool
val specs : t -> spec list

val fire : t -> site -> bool
(** Draw the site's next coin; false when the site is not armed.  A query
    of a site that is not armed allocates nothing: the simulator queries
    [Sim_trap] once per instruction. *)

val derive : t -> string -> t
(** Child injector with per-site seeds re-derived from [tag] (and fresh
    query counters): same parent + same tag → same coin sequence. *)

val fingerprint : t -> string
(** Stable content identity for cache keys: ["" ] for [none], else the
    sorted spec list.  Two runs with different injection must never share a
    cached result. *)

val stall_seconds : float
(** How long an injected [Pool_stall] sleeps (long enough for a short
    watchdog to fire, short enough for tests: 0.25s). *)

val stall : t -> unit
(** Sleep [stall_seconds] if the [Pool_stall] site fires. *)
