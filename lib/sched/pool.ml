(* Work-stealing domain pool, lock-striped.

   Each worker owns an array-backed ring deque guarded by its own stripe
   lock; the hot path (push a job / pop a job) touches exactly one stripe
   mutex and a handful of atomics.  A single small "gate" mutex exists only
   for parking and waking — its critical sections are a few loads, never a
   deque operation.  Owners pop newest-first from their own deque
   (locality: a just-submitted batch stays warm), thieves take the oldest
   job of a victim (the one the owner would reach last).

   Oversubscription control: spawning more domains than the machine has
   cores is catastrophic under OCaml 5's stop-the-world minor GC — every
   runnable mutator domain lengthens every GC synchronization.  The pool
   therefore runs at most [active] workers (default: the runtime's
   recommended domain count, clamped to [domains]); the remaining workers
   are *reserves* that park immediately and cost nothing.  A reserve is
   engaged by {!boost} — called from [await_timeout]'s poll loop, i.e.
   exactly when a supervisor observes a job overstaying its watchdog while
   queued work exists.  A blocked primary therefore cannot stall a guarded
   batch (the reserve picks the queue up within one 5ms poll), yet an
   unguarded batch on a loaded single-core host never thrashes.

   Wakeup correctness is epoch-based: submitters push, then bump [epoch],
   then signal if anyone is parked; a worker records the epoch *before*
   scanning and re-checks it (after registering itself idle, under the
   gate) before sleeping.  Atomics are sequentially consistent, so either
   the re-check sees the bump or the submitter sees the idle registration
   — a missed wakeup is impossible. *)

(* Jobs erase their result type: the closure fulfils its own future. *)
type job = unit -> unit

(* A fixed-capacity growable ring deque.  All operations on one ring run
   under its stripe lock. *)
module Ring = struct
  type t = {
    mutable buf : job array;
    mutable head : int;  (* index of oldest *)
    mutable len : int;
  }

  let dummy : job = fun () -> ()
  let create cap = { buf = Array.make (max 4 cap) dummy; head = 0; len = 0 }

  let grow r =
    let cap = Array.length r.buf in
    let buf = Array.make (2 * cap) dummy in
    for k = 0 to r.len - 1 do
      buf.(k) <- r.buf.((r.head + k) mod cap)
    done;
    r.buf <- buf;
    r.head <- 0

  let push_newest r x =
    if r.len = Array.length r.buf then grow r;
    r.buf.((r.head + r.len) mod Array.length r.buf) <- x;
    r.len <- r.len + 1

  let pop_newest r =
    if r.len = 0 then None
    else begin
      r.len <- r.len - 1;
      let i = (r.head + r.len) mod Array.length r.buf in
      let x = r.buf.(i) in
      r.buf.(i) <- dummy;
      Some x
    end

  let pop_oldest r =
    if r.len = 0 then None
    else begin
      let x = r.buf.(r.head) in
      r.buf.(r.head) <- dummy;
      r.head <- (r.head + 1) mod Array.length r.buf;
      r.len <- r.len - 1;
      Some x
    end
end

type stripe = { lock : Mutex.t; ring : Ring.t }

type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type stats = {
  submitted : int;
  executed : int;
  stolen : int;
  max_pending : int;
  waits : int;
  boosts : int;
}

type t = {
  stripes : stripe array;
  queue_capacity : int;
  active : int;  (* workers 0..active-1 run eagerly; the rest are reserves *)
  gate : Mutex.t;  (* parking/waking only — never held around deque ops *)
  work_cond : Condition.t;  (* primaries park here *)
  reserve_cond : Condition.t;  (* reserves park here, woken by [boost] *)
  space_cond : Condition.t;  (* submitters park here under backpressure *)
  epoch : int Atomic.t;  (* bumped after every push; anti-lost-wakeup *)
  pending : int Atomic.t;  (* queued, not yet started *)
  cursor : int Atomic.t;  (* round-robin submission cursor *)
  idle_primaries : int Atomic.t;
  parked_reserves : int Atomic.t;
  space_waiters : int Atomic.t;
  submitted : int Atomic.t;
  executed : int Atomic.t;
  stolen : int Atomic.t;
  max_pending : int Atomic.t;
  waits : int Atomic.t;
  boosts : int Atomic.t;
  mutable stop : bool;  (* written under [gate] *)
  mutable workers : unit Domain.t list;  (* mutated under [gate] *)
  mutable spawned_reserves : int;  (* reserves are spawned lazily, under [gate] *)
}

type 'a future = {
  fmutex : Mutex.t;
  fcond : Condition.t;
  mutable fstate : 'a state;
  fpool : t;  (* lets [await_timeout] engage a reserve on overstay *)
}

let domain_count t = Array.length t.stripes
let active_limit t = t.active

let update_max cell v =
  let rec go () =
    let cur = Atomic.get cell in
    if v > cur && not (Atomic.compare_and_set cell cur v) then go ()
  in
  go ()

(* Take a job for worker [i]: own deque newest-first, then steal the oldest
   job from the first non-empty sibling.  Locks one stripe at a time. *)
let try_take t i =
  let own = t.stripes.(i) in
  Mutex.lock own.lock;
  let mine = Ring.pop_newest own.ring in
  Mutex.unlock own.lock;
  match mine with
  | Some _ -> mine
  | None ->
    let n = Array.length t.stripes in
    let rec scan k =
      if k = n then None
      else begin
        let victim = t.stripes.((i + k) mod n) in
        Mutex.lock victim.lock;
        let got = Ring.pop_oldest victim.ring in
        Mutex.unlock victim.lock;
        match got with
        | Some _ ->
          Atomic.incr t.stolen;
          got
        | None -> scan (k + 1)
      end
    in
    scan 1

let took_one t =
  Atomic.decr t.pending;
  if Atomic.get t.space_waiters > 0 then begin
    Mutex.lock t.gate;
    Condition.broadcast t.space_cond;
    Mutex.unlock t.gate
  end

(* Run one queued job on the calling domain, if any.  Used by [await]
   (work-stealing join: an awaiter executes the queue instead of blocking)
   and by backpressured submitters (the producer becomes a consumer), which
   is also what keeps a pool with zero eager workers live. *)
let help_one t =
  match try_take t 0 with
  | Some job ->
    took_one t;
    job ();
    true
  | None -> false

(* Primary worker: scan, run, park on empty.  The epoch is read before the
   scan; see the module comment for why sleeping is then safe. *)
let worker_minor_heap_words = 1 lsl 22  (* 4M words = 32MB nursery *)

(* Batch jobs allocate tens of MB each; every nursery fill is a
   stop-the-world handshake with every live domain.  Workers therefore run
   with a large nursery (the server-GC trade: latency for throughput) —
   jobs see ~an order of magnitude fewer STW pauses.  Only the worker
   domain's own nursery grows; the main domain keeps its default. *)
let set_worker_gc () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = worker_minor_heap_words }

let worker_loop t i =
  set_worker_gc ();
  let rec run () =
    let e = Atomic.get t.epoch in
    match try_take t i with
    | Some job ->
      took_one t;
      job ();
      run ()
    | None ->
      Mutex.lock t.gate;
      if t.stop then Mutex.unlock t.gate
      else begin
        Atomic.incr t.idle_primaries;
        if Atomic.get t.epoch <> e then begin
          Atomic.decr t.idle_primaries;
          Mutex.unlock t.gate;
          run ()
        end
        else begin
          Atomic.incr t.waits;
          Condition.wait t.work_cond t.gate;
          Atomic.decr t.idle_primaries;
          Mutex.unlock t.gate;
          run ()
        end
      end
  in
  run ()

(* Reserve worker: spawned lazily by the first [boost] that finds no parked
   reserve (an idle domain is not free — every minor-GC stop-the-world must
   handshake it, which on a loaded single-core host is a context switch per
   collection).  Once alive it drains until a scan comes up dry, then parks
   on [reserve_cond]; later boosts wake it.  A boost with no reserve
   available is dropped — the next watchdog poll retries, so liveness is
   kept by the 5ms poll cadence. *)
let reserve_loop t i =
  set_worker_gc ();
  let rec park () =
    Mutex.lock t.gate;
    if t.stop then Mutex.unlock t.gate
    else begin
      Atomic.incr t.parked_reserves;
      Atomic.incr t.waits;
      Condition.wait t.reserve_cond t.gate;
      Atomic.decr t.parked_reserves;
      Mutex.unlock t.gate;
      engaged ()
    end
  and engaged () =
    match try_take t i with
    | Some job ->
      took_one t;
      job ();
      engaged ()
    | None -> park ()
  in
  engaged ()

(* One fewer eager worker than the machine has cores: the awaiting caller
   helps execute the queue (see [await]), so it occupies the last slot
   itself.  On a single-core host this means ZERO worker domains — the
   whole batch runs on the caller, and no stop-the-world handshake ever
   involves a second domain. *)
let default_active ~domains =
  min domains (max 0 (Domain.recommended_domain_count () - 1))

let create ?queue_capacity ?active ~domains () =
  let domains = max 1 domains in
  let queue_capacity =
    match queue_capacity with Some c -> max 1 c | None -> 4 * domains
  in
  let active =
    match active with
    | Some a -> max 0 (min domains a)
    | None -> default_active ~domains
  in
  let t =
    {
      stripes =
        Array.init domains (fun _ ->
            { lock = Mutex.create (); ring = Ring.create 16 });
      queue_capacity;
      active;
      gate = Mutex.create ();
      work_cond = Condition.create ();
      reserve_cond = Condition.create ();
      space_cond = Condition.create ();
      epoch = Atomic.make 0;
      pending = Atomic.make 0;
      cursor = Atomic.make 0;
      idle_primaries = Atomic.make 0;
      parked_reserves = Atomic.make 0;
      space_waiters = Atomic.make 0;
      submitted = Atomic.make 0;
      executed = Atomic.make 0;
      stolen = Atomic.make 0;
      max_pending = Atomic.make 0;
      waits = Atomic.make 0;
      boosts = Atomic.make 0;
      stop = false;
      workers = [];
      spawned_reserves = 0;
    }
  in
  t.workers <-
    List.init active (fun i -> Domain.spawn (fun () -> worker_loop t i));
  t

let boost t =
  if Atomic.get t.pending > 0 then begin
    if Atomic.get t.parked_reserves > 0 then begin
      Atomic.incr t.boosts;
      Mutex.lock t.gate;
      Condition.signal t.reserve_cond;
      Mutex.unlock t.gate
    end
    else if t.spawned_reserves < domain_count t - t.active then begin
      Mutex.lock t.gate;
      if (not t.stop) && t.spawned_reserves < domain_count t - t.active then begin
        let i = t.active + t.spawned_reserves in
        t.spawned_reserves <- t.spawned_reserves + 1;
        Atomic.incr t.boosts;
        t.workers <- Domain.spawn (fun () -> reserve_loop t i) :: t.workers
      end;
      Mutex.unlock t.gate
    end
  end

let fulfil fut result =
  Mutex.lock fut.fmutex;
  fut.fstate <- result;
  Condition.broadcast fut.fcond;
  Mutex.unlock fut.fmutex

(* Reserve a queue slot; blocks under backpressure.  Registering as a
   space-waiter before re-checking [pending] mirrors the worker-side
   epoch protocol: either the re-check sees the freed slot or the worker
   sees the waiter and broadcasts. *)
let reserve_slot t =
  let rec attempt () =
    let old = Atomic.fetch_and_add t.pending 1 in
    if old < t.queue_capacity then update_max t.max_pending (old + 1)
    else begin
      Atomic.decr t.pending;
      (* full queue: run one queued job right here rather than waiting for
         a worker to drain it *)
      if help_one t then attempt ()
      else begin
        Mutex.lock t.gate;
        Atomic.incr t.space_waiters;
        if Atomic.get t.pending >= t.queue_capacity then
          Condition.wait t.space_cond t.gate;
        Atomic.decr t.space_waiters;
        Mutex.unlock t.gate;
        attempt ()
      end
    end
  in
  attempt ()

let submit t f =
  if t.stop then invalid_arg "Sched.Pool.submit: pool is shut down";
  let fut =
    { fmutex = Mutex.create (); fcond = Condition.create (); fstate = Pending; fpool = t }
  in
  (* [executed] is bumped before the future is fulfilled, so any stats read
     that follows an [await] of this job already counts it. *)
  let job () =
    let result =
      match f () with
      | v -> Done v
      | exception e -> Failed (e, Printexc.get_raw_backtrace ())
    in
    Atomic.incr t.executed;
    fulfil fut result
  in
  reserve_slot t;
  let stripe =
    t.stripes.(Atomic.fetch_and_add t.cursor 1 mod Array.length t.stripes)
  in
  Mutex.lock stripe.lock;
  Ring.push_newest stripe.ring job;
  Mutex.unlock stripe.lock;
  Atomic.incr t.submitted;
  Atomic.incr t.epoch;
  if Atomic.get t.idle_primaries > 0 then begin
    Mutex.lock t.gate;
    Condition.signal t.work_cond;
    Mutex.unlock t.gate
  end;
  fut

(* Work-stealing join: while the future is unresolved and the queue is
   non-empty, the awaiter executes jobs itself.  If its scan comes up dry
   while the future is still pending, the future's own job must already be
   running on some other domain (a queued job would have been found), so
   blocking on the future's condition is safe. *)
let await fut =
  let t = fut.fpool in
  let rec go () =
    Mutex.lock fut.fmutex;
    let st = fut.fstate in
    Mutex.unlock fut.fmutex;
    match st with
    | Pending -> if help_one t then go () else block ()
    | st -> settle st
  and block () =
    Mutex.lock fut.fmutex;
    while fut.fstate = Pending do
      Condition.wait fut.fcond fut.fmutex
    done;
    let st = fut.fstate in
    Mutex.unlock fut.fmutex;
    settle st
  and settle = function
    | Done v -> v
    | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
    | Pending -> assert false
  in
  go ()

(* OCaml's Condition has no timed wait, so the watchdog polls.  The poll
   interval (5ms) is invisible against jobs that run for milliseconds to
   seconds; only awaits that actually hit their deadline pay it.  Each
   miss also [boost]s the pool: an unsettled future plus queued work is
   precisely the signature of a stalled worker, so a reserve is engaged. *)
let watchdog_poll_s = 0.005

let await_timeout fut ~seconds =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec loop () =
    Mutex.lock fut.fmutex;
    let st = fut.fstate in
    Mutex.unlock fut.fmutex;
    match st with
    | Done v -> Some v
    | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
    | Pending ->
      if Unix.gettimeofday () >= deadline then None
      else begin
        boost fut.fpool;
        Unix.sleepf watchdog_poll_s;
        loop ()
      end
  in
  loop ()

(* Split [xs] into groups of [chunk], keeping order. *)
let chunks_of chunk xs =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if k = chunk then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 xs

(* Results come back in input order regardless of execution interleaving:
   the futures list is built in order and awaited in order. *)
let map_list t ?(chunk = 1) f xs =
  if chunk <= 1 then begin
    let futures = List.map (fun x -> submit t (fun () -> f x)) xs in
    List.map await futures
  end
  else begin
    (* coarsen tiny jobs: one pool job maps a whole chunk, amortizing the
       submit/steal/wake cost; order is preserved chunk-wise and in-chunk *)
    let futures =
      List.map
        (fun group -> submit t (fun () -> List.map f group))
        (chunks_of chunk xs)
    in
    List.concat_map await futures
  end

let default_transient = function
  | Fault.Ompgpu_error.Error err -> Fault.Ompgpu_error.is_transient err
  | _ -> false

let map_list_guarded t ?watchdog_s ?(retries = 0) ?(backoff_s = 0.05)
    ?(is_transient = default_transient) f xs =
  let submit_attempt n x = submit t (fun () -> f ~attempt:n x) in
  (* first attempts are all in flight before any await: full parallelism on
     the happy path; retries are submitted on demand as failures surface *)
  let futures = List.map (submit_attempt 0) xs in
  let rec settle n x fut =
    let outcome =
      match watchdog_s with
      | None -> (
        match await fut with
        | v -> Ok v
        | exception e -> Error (e, Printexc.get_raw_backtrace ()))
      | Some seconds -> (
        match await_timeout fut ~seconds with
        | Some v -> Ok v
        | None ->
          (* the stalled job keeps its domain until it returns on its own;
             its eventual result is discarded *)
          let err =
            Fault.Ompgpu_error.make
              (Fault.Ompgpu_error.Timeout { seconds })
              ~phase:Fault.Ompgpu_error.Scheduling
              (Printf.sprintf "job exceeded its %gs watchdog (attempt %d)" seconds
                 (n + 1))
          in
          Error (Fault.Ompgpu_error.Error err, Printexc.get_callstack 0)
        | exception e -> Error (e, Printexc.get_raw_backtrace ()))
    in
    match outcome with
    | Ok v -> Ok v
    | Error (e, _) when n < retries && is_transient e ->
      Unix.sleepf (backoff_s *. float_of_int (1 lsl n));
      settle (n + 1) x (submit_attempt (n + 1) x)
    | Error _ as failed -> failed
  in
  List.map2 (settle 0) xs futures

let stats t =
  {
    submitted = Atomic.get t.submitted;
    executed = Atomic.get t.executed;
    stolen = Atomic.get t.stolen;
    max_pending = Atomic.get t.max_pending;
    waits = Atomic.get t.waits;
    boosts = Atomic.get t.boosts;
  }

let shutdown t =
  Mutex.lock t.gate;
  if t.stop then Mutex.unlock t.gate
  else begin
    t.stop <- true;
    Condition.broadcast t.work_cond;
    Condition.broadcast t.reserve_cond;
    Condition.broadcast t.space_cond;
    let workers = t.workers in
    t.workers <- [];
    Mutex.unlock t.gate;
    List.iter Domain.join workers;
    (* drain anything still queued (a parked worker re-checks [stop] before
       sleeping, so by here every worker has exited; late-queued jobs run
       on the caller, preserving the drain-then-join contract) *)
    let rec drain i =
      match try_take t i with
      | Some job ->
        took_one t;
        job ();
        drain i
      | None -> ()
    in
    drain 0
  end

let with_pool ?queue_capacity ?active ~domains f =
  let t = create ?queue_capacity ?active ~domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
