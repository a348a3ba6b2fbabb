(** A fixed-size work-stealing job scheduler on OCaml 5 [Domain]s.

    The pool owns [domains] worker domains.  Each worker has its own
    array-backed ring deque under a per-worker stripe lock; submitted jobs
    are distributed round-robin, a worker services its own deque
    newest-first (LIFO, for locality) and steals the oldest job (FIFO)
    from a sibling when its own deque is empty.  A small gate mutex covers
    only parking and waking.  The pending-job count is bounded: [submit]
    blocks once [queue_capacity] jobs are queued, giving natural
    backpressure to producers.

    At most [active] workers (default: the runtime's recommended domain
    count) run eagerly; the rest are {e reserves}, spawned lazily —
    running (or even idling) more domains than the machine has cores is
    counterproductive under OCaml 5's stop-the-world minor GC, so on a
    constrained host a [domains:4] pool keeps only its active workers
    alive — until {!await_timeout} observes a job overstaying its deadline
    while work is queued, which engages a reserve within one poll
    interval.  Guarded batches therefore keep their liveness guarantees
    even when a job blocks its worker.

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
  stolen : int;  (** jobs a worker took from a sibling's deque *)
  max_pending : int;  (** high-water mark of the bounded queue *)
  waits : int;  (** times a worker parked on an empty scan *)
  boosts : int;  (** reserve engagements triggered by watchdog polls *)
}

val create : ?queue_capacity:int -> ?active:int -> domains:int -> unit -> t
(** [create ~domains ()] spawns [domains] worker domains (at least 1).
    [queue_capacity] bounds the number of queued-but-not-started jobs
    (default [4 * domains]; at least 1).  [active] caps the eagerly
    running workers (default [min domains (Domain.recommended_domain_count
    ())]; clamped to [1..domains]) — the remainder start parked as
    reserves. *)

val domain_count : t -> int

val active_limit : t -> int
(** The number of eagerly running workers (see [create]'s [active]). *)

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueue a job.  Blocks while the queue is at capacity.  Raises
    [Invalid_argument] if the pool has been shut down. *)

val await : 'a future -> 'a
(** Wait for a job's result.  Re-raises the job's exception (with its
    backtrace) if it failed. *)

val await_timeout : 'a future -> seconds:float -> 'a option
(** Like {!await}, but gives up after [seconds] and returns [None] (the job
    itself keeps running; a later {!await} still works).  Polls — OCaml's
    [Condition] has no timed wait — at a 5ms interval; every missed poll
    with queued work engages one parked reserve worker, so a blocked
    primary cannot stall a supervised batch. *)

val map_list : t -> ?chunk:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list t f xs] runs [f x] for every element as pool jobs and returns
    the results in input order — deterministic output for deterministic
    [f], whatever the execution interleaving.  Equivalent to
    [List.map f xs] observationally when [f] is pure per-element.
    [chunk] (default 1) coarsens tiny jobs: each pool job maps [chunk]
    consecutive elements, amortizing submit/wake/steal overhead. *)

val map_list_guarded :
  t ->
  ?watchdog_s:float ->
  ?retries:int ->
  ?backoff_s:float ->
  ?is_transient:(exn -> bool) ->
  (attempt:int -> 'a -> 'b) ->
  'a list ->
  ('b, exn * Printexc.raw_backtrace) result list
(** {!map_list} with per-job supervision; no exception escapes the batch —
    each job settles to [Ok] or [Error (exn, backtrace)], in input order.

    [watchdog_s]: a job not settled within this many seconds (measured from
    submission, so queue wait counts) is declared hung with a structured
    [Fault.Ompgpu_error.Timeout] — the stalled job keeps its domain until
    it returns on its own, but the batch makes progress.

    Failures satisfying [is_transient] (default: structured errors whose
    [Fault.Ompgpu_error.is_transient] holds — timeouts and allocation
    failures) are retried up to [retries] times with exponential backoff
    ([backoff_s] * 2^attempt).  The job function receives the attempt
    number (0 = first try) so it can derive fresh fault-injector coins. *)

val stats : t -> stats

val shutdown : t -> unit
(** Drain every queued job, then join the worker domains.  Idempotent. *)

val with_pool : ?queue_capacity:int -> ?active:int -> domains:int -> (t -> 'a) -> 'a
(** [create], run the callback, always [shutdown]. *)
