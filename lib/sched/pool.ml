(* A domain pool on one FIFO queue.

   Every queued job waits in one [Queue.t] guarded by the [gate] mutex, and
   every taker — a worker, a reserve, an awaiting caller or a submitter held
   back by a full queue — takes the oldest job.  Workers and reserves wait
   on conditions of that same mutex, and submitters push and signal while
   holding it, so a worker either sees the new job before it waits or is
   woken by the signal: no wakeup can be lost.  The pool's traffic is tens
   of 0.1–2 s jobs per batch and one ~2 ms compile per request, so one
   mutex round-trip per job is noise.

   Oversubscription control: spawning more domains than the machine has
   cores is catastrophic under OCaml 5's stop-the-world minor GC — every
   runnable mutator domain lengthens every GC synchronization.  The pool
   therefore runs at most [active] workers ({!default_active}); the
   remaining workers are *reserves*, spawned lazily and idle until needed.
   A reserve is engaged by {!boost} — called from [await_timeout]'s poll
   loop, i.e. exactly when a supervisor observes a job overstaying its
   watchdog while queued work exists.  A blocked primary therefore cannot
   stall a guarded batch (the reserve picks the queue up within one 5ms
   poll), yet an unguarded batch on a loaded single-core host never
   thrashes. *)

(* Jobs erase their result type: the closure fulfils its own future. *)
type job = unit -> unit

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

(* Every mutable field is read and written under [gate]. *)
type t = {
  queue : job Queue.t;  (* queued, not yet started; oldest first *)
  queue_capacity : int;
  domains : int;
  active : int;  (* eager workers; the other [domains - active] are reserves *)
  gate : Mutex.t;
  work_cond : Condition.t;  (* workers wait here for a job *)
  reserve_cond : Condition.t;  (* reserves wait here for a [boost] *)
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  mutable spawned_reserves : int;
  mutable parked_reserves : int;
  mutable submitted : int;
  mutable executed : int;
  mutable stolen : int;
  mutable max_pending : int;
  mutable waits : int;
  mutable boosts : int;
}

type 'a future = {
  fmutex : Mutex.t;
  fcond : Condition.t;
  mutable fstate : 'a state;
  fpool : t;  (* lets [await] help and [await_timeout] engage a reserve *)
}

let domain_count t = t.domains
let active_limit t = t.active

let locked t f =
  Mutex.lock t.gate;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.gate) f

(* Under [gate], with the queue non-empty: run the oldest job on this
   domain, releasing [gate] while it runs.  Jobs never raise (each one
   settles its own future).  A caller — an awaiter, a backpressured
   submitter or the shutdown drain — running a job in place of a worker
   counts as [stolen]. *)
let run_oldest t ~caller =
  if caller then t.stolen <- t.stolen + 1;
  let job = Queue.pop t.queue in
  Mutex.unlock t.gate;
  job ();
  Mutex.lock t.gate

(* Batch jobs allocate tens of MB each; every nursery fill is a
   stop-the-world handshake with every live domain.  Workers therefore run
   with a large nursery (the server-GC trade: latency for throughput) —
   jobs see ~an order of magnitude fewer STW pauses.  Only the worker
   domain's own nursery grows; the main domain keeps its default. *)
let worker_minor_heap_words = 1 lsl 22  (* 4M words = 32MB nursery *)

(* A worker or reserve runs jobs until the pool stops and the queue is
   empty.  A worker waits on [work_cond], which every submit signals.  A
   reserve waits on [reserve_cond], which only [boost] signals: only an
   overstayed watchdog engages a reserve. *)
let domain_loop t ~reserve =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = worker_minor_heap_words };
  Mutex.lock t.gate;
  while not (t.stop && Queue.is_empty t.queue) do
    if not (Queue.is_empty t.queue) then run_oldest t ~caller:false
    else begin
      t.waits <- t.waits + 1;
      if reserve then begin
        t.parked_reserves <- t.parked_reserves + 1;
        Condition.wait t.reserve_cond t.gate;
        t.parked_reserves <- t.parked_reserves - 1
      end
      else Condition.wait t.work_cond t.gate
    end
  done;
  Mutex.unlock t.gate

(* One fewer eager worker than the machine has cores: the awaiting caller
   helps execute the queue (see [await]), so it occupies the last slot
   itself.  On a single-core host this means ZERO worker domains — the
   whole batch runs on the caller, and no stop-the-world handshake ever
   involves a second domain. *)
let default_active ~domains =
  min domains (max 0 (Domain.recommended_domain_count () - 1))

let create ?queue_capacity ~domains () =
  let domains = max 1 domains in
  let queue_capacity =
    match queue_capacity with Some c -> max 1 c | None -> 4 * domains
  in
  let t =
    {
      queue = Queue.create ();
      queue_capacity;
      domains;
      active = default_active ~domains;
      gate = Mutex.create ();
      work_cond = Condition.create ();
      reserve_cond = Condition.create ();
      stop = false;
      workers = [];
      spawned_reserves = 0;
      parked_reserves = 0;
      submitted = 0;
      executed = 0;
      stolen = 0;
      max_pending = 0;
      waits = 0;
      boosts = 0;
    }
  in
  t.workers <-
    List.init t.active (fun _ -> Domain.spawn (fun () -> domain_loop t ~reserve:false));
  t

(* A reserve is spawned by the first [boost] that finds none parked (an idle
   domain is not free — every minor-GC stop-the-world must handshake it,
   which on a loaded single-core host is a context switch per collection).
   A boost with no reserve left is dropped: the next watchdog poll retries,
   so liveness is kept by the 5ms poll cadence. *)
let boost t =
  locked t (fun () ->
      if (not t.stop) && not (Queue.is_empty t.queue) then
        if t.parked_reserves > 0 then begin
          t.boosts <- t.boosts + 1;
          Condition.signal t.reserve_cond
        end
        else if t.spawned_reserves < t.domains - t.active then begin
          t.spawned_reserves <- t.spawned_reserves + 1;
          t.boosts <- t.boosts + 1;
          t.workers <- Domain.spawn (fun () -> domain_loop t ~reserve:true) :: t.workers
        end)

let submit t f =
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
    locked t (fun () -> t.executed <- t.executed + 1);
    Mutex.lock fut.fmutex;
    fut.fstate <- result;
    Condition.broadcast fut.fcond;
    Mutex.unlock fut.fmutex
  in
  locked t (fun () ->
      if t.stop then invalid_arg "Sched.Pool.submit: pool is shut down";
      (* backpressure: a full queue always holds a job, so the submitter
         runs the oldest one itself until a slot is free *)
      while Queue.length t.queue >= t.queue_capacity do
        run_oldest t ~caller:true
      done;
      Queue.push job t.queue;
      t.submitted <- t.submitted + 1;
      t.max_pending <- max t.max_pending (Queue.length t.queue);
      Condition.signal t.work_cond);
  fut

let state fut =
  Mutex.lock fut.fmutex;
  let st = fut.fstate in
  Mutex.unlock fut.fmutex;
  st

let settle = function
  | Done v -> v
  | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | Pending -> assert false

(* Helping join: while the future is unresolved and the queue is non-empty,
   the awaiter runs the oldest job itself.  Once the queue is empty while
   the future is still pending, the future's own job is already running on
   some other domain, so blocking on the future's condition is safe. *)
let await fut =
  let t = fut.fpool in
  let rec go () =
    match state fut with
    | Pending ->
      Mutex.lock t.gate;
      let helped = not (Queue.is_empty t.queue) in
      if helped then run_oldest t ~caller:true;
      Mutex.unlock t.gate;
      if helped then go ()
      else begin
        Mutex.lock fut.fmutex;
        while fut.fstate = Pending do
          Condition.wait fut.fcond fut.fmutex
        done;
        let st = fut.fstate in
        Mutex.unlock fut.fmutex;
        settle st
      end
    | st -> settle st
  in
  go ()

(* OCaml's Condition has no timed wait, so the watchdog polls.  The poll
   interval (5ms) is invisible against jobs that run for milliseconds to
   seconds; only awaits that actually hit their deadline pay it.  Each
   miss also [boost]s the pool: an unsettled future plus queued work is
   precisely the signature of a stalled worker, so a reserve is engaged. *)
let watchdog_poll_s = 0.005

let await_timeout fut ~seconds =
  let deadline = Observe.Clock.now_s () +. seconds in
  let rec loop () =
    match state fut with
    | Pending ->
      if Observe.Clock.now_s () >= deadline then None
      else begin
        boost fut.fpool;
        Unix.sleepf watchdog_poll_s;
        loop ()
      end
    | st -> Some (settle st)
  in
  loop ()

(* Results come back in input order regardless of execution interleaving:
   the futures list is built in order and awaited in order. *)
let map_list t f xs =
  let futures = List.map (fun x -> submit t (fun () -> f x)) xs in
  List.map await futures

let map_list_guarded t ?watchdog_s f xs =
  let futures = List.map (fun x -> submit t (fun () -> f x)) xs in
  let settle_one fut =
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
            (Printf.sprintf "job exceeded its %gs watchdog" seconds)
        in
        Error (Fault.Ompgpu_error.Error err, Printexc.get_callstack 0)
      | exception e -> Error (e, Printexc.get_raw_backtrace ()))
  in
  List.map settle_one futures

let stats t =
  locked t (fun () ->
      {
        submitted = t.submitted;
        executed = t.executed;
        stolen = t.stolen;
        max_pending = t.max_pending;
        waits = t.waits;
        boosts = t.boosts;
      })

(* Workers drain the queue before they exit.  With no worker domain (a
   single-core host, no reserve engaged) jobs may still be queued: they run
   here, after the join, preserving the drain-then-join contract. *)
let shutdown t =
  let workers =
    locked t (fun () ->
        let workers = t.workers in
        t.stop <- true;
        t.workers <- [];
        Condition.broadcast t.work_cond;
        Condition.broadcast t.reserve_cond;
        workers)
  in
  List.iter Domain.join workers;
  locked t (fun () ->
      while not (Queue.is_empty t.queue) do
        run_oldest t ~caller:true
      done)

let with_pool ?queue_capacity ~domains f =
  let t = create ?queue_capacity ~domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
