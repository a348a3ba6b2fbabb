(** A fixed-size job scheduler on OCaml 5 [Domain]s.

    Submitted jobs wait in one FIFO queue under one mutex, and whoever
    takes a job takes the oldest: a worker domain, an awaiting caller
    ({!await} helps run the queue instead of blocking), or a submitter
    held back by a full queue.  The queue is bounded: once
    [queue_capacity] jobs are queued, [submit] runs queued jobs on the
    calling domain until a slot is free, giving natural backpressure to
    producers.

    At most {!active_limit} workers run eagerly (one fewer than the
    runtime's recommended domain count, clamped to [domains]; zero on a
    single-core host, where the caller runs every job); the rest are
    {e reserves}, spawned lazily — running (or even idling) more domains
    than the machine has cores is counterproductive under OCaml 5's
    stop-the-world minor GC.  A reserve is engaged when {!await_timeout}
    observes a job overstaying its deadline while work is queued, within
    one poll interval.  Guarded batches therefore keep their liveness
    guarantees even when a job blocks its worker.

    Domain-safety contract for jobs: a job must not touch mutable state
    shared with another job (each compile/simulate job builds its own IR
    module, remark sink and trace; see docs/SCHEDULER.md).  Jobs must not
    themselves call [submit]/[await] on the same pool — the pool is a flat
    worker pool, not a nested fork-join runtime. *)

type t

type 'a future

(** Lifetime statistics of a pool (monotonic; read with {!stats}). *)
type stats = {
  submitted : int;  (** jobs accepted by {!submit} *)
  executed : int;  (** jobs completed (successfully or with an exception) *)
  stolen : int;
      (** jobs run by a caller — an awaiter, a backpressured submitter or
          the shutdown drain — instead of a worker domain *)
  max_pending : int;  (** high-water mark of the bounded queue *)
  waits : int;  (** times a worker or reserve waited on an empty queue *)
  boosts : int;  (** reserve engagements triggered by watchdog polls *)
}

val create : ?queue_capacity:int -> domains:int -> unit -> t
(** [create ~domains ()] sizes the pool at [domains] worker domains (at
    least 1) and spawns the eager ones ({!active_limit}); the rest are
    reserves.  [queue_capacity] bounds the number of queued-but-not-started
    jobs (default [4 * domains]; at least 1). *)

val domain_count : t -> int

val active_limit : t -> int
(** The number of eagerly running workers: [min domains
    (Domain.recommended_domain_count () - 1)], at least 0. *)

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueue a job.  While the queue is at capacity, runs the oldest queued
    job on the calling domain first.  Raises [Invalid_argument] if the pool
    has been shut down. *)

val await : 'a future -> 'a
(** Wait for a job's result, running the oldest queued jobs on the calling
    domain while any are queued.  Re-raises the job's exception (with its
    backtrace) if it failed. *)

val await_timeout : 'a future -> seconds:float -> 'a option
(** Like {!await}, but does not help, and gives up after [seconds] on the
    monotonic clock and returns [None] (the job itself keeps running; a
    later {!await} still works).  Polls — OCaml's [Condition] has no timed
    wait — at a 5ms interval; every missed poll with queued work engages
    one reserve worker, so a blocked primary cannot stall a supervised
    batch. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list t f xs] runs [f x] for every element as pool jobs and returns
    the results in input order — deterministic output for deterministic
    [f], whatever the execution interleaving.  Equivalent to
    [List.map f xs] observationally when [f] is pure per-element. *)

val map_list_guarded :
  t ->
  ?watchdog_s:float ->
  ('a -> 'b) ->
  'a list ->
  ('b, exn * Printexc.raw_backtrace) result list
(** {!map_list} with per-job containment; no exception escapes the batch —
    each job settles to [Ok] or [Error (exn, backtrace)], in input order.

    [watchdog_s]: a job not settled within this many seconds of the caller
    starting to wait for it is declared hung with a structured
    [Fault.Ompgpu_error.Timeout] — the stalled job keeps its domain until
    it returns on its own, but the batch makes progress. *)

val stats : t -> stats

val shutdown : t -> unit
(** Drain every queued job, then join the worker domains.  Idempotent. *)

val with_pool : ?queue_capacity:int -> domains:int -> (t -> 'a) -> 'a
(** [create], run the callback, always [shutdown]. *)
