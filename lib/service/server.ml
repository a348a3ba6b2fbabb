(* The persistent compile daemon (see the .mli and docs/API.md).

   Layering: the Endpoint owns the socket, the connection threads, the
   framing and the drain; this module is the dispatch those threads call
   (admission, caches, compile, documents), and the Sched.Pool domains own
   all compiler work.  The only shared mutable state here is the counters
   record (one mutex), the caches (thread-safe by construction), the
   journal (its own mutex) and the tier-upgrade queue (its own mutex).

   Supervision: when created with [~listener] (by {!Supervisor}), the
   server borrows the listening socket — a serve-loop crash severs the
   live connections, re-raises, and leaves the socket bound so the
   supervisor can restart the loop without dropping the address. *)

module J = Observe.Json
module E = Fault.Ompgpu_error

type config = {
  socket_path : string;
  domains : int;
  capacity : int;
  watchdog_s : float option;
  cache_dir : string option;
  state_dir : string option;
  injector : Fault.Injector.t;
  drain_deadline_s : float;
  tiered : bool;
  cache_max_entries : int option;  (* in-memory result-cache entry cap *)
  cache_max_bytes : int option;  (* in-memory byte cap + disk-cache quota *)
  journal_max_bytes : int option;  (* mid-life journal rotation cap *)
}

let default_config =
  {
    socket_path = "./mompd.sock";
    domains = 2;
    capacity = 8;
    watchdog_s = None;
    cache_dir = None;
    state_dir = None;
    injector = Fault.Injector.none;
    drain_deadline_s = 5.0;
    tiered = false;
    cache_max_entries = None;
    cache_max_bytes = None;
    journal_max_bytes = None;
  }

(* Cross-incarnation supervision state: owned by the supervisor, read by
   every incarnation's stats/health answers. *)
type supervision = {
  mutable restarts : int;
  mutable breaker_open : bool;
  mutable last_crash : string option;
  mutable on_journal_rotate : unit -> unit;
      (* set by each incarnation: the journal outlives servers, so its
         rotation hook indirects through here to reach the current one *)
}

let new_supervision () =
  {
    restarts = 0;
    breaker_open = false;
    last_crash = None;
    on_journal_rotate = ignore;
  }

(* Request counters; one mutex is plenty (a counter bump per request
   against compiles that take milliseconds). *)
type counters = {
  mutable compiles : int;  (* compile/run requests admitted *)
  mutable compile_ok : int;
  mutable compile_failed : int;  (* structured failures incl. timeouts *)
  mutable shed : int;  (* rejected by admission control (incl. drain) *)
  mutable stats_requests : int;
  mutable health_requests : int;
  mutable in_flight : int;  (* admitted, not yet settled *)
  mutable fast_served : int;  (* compile answers taken from the fast tier *)
  mutable profile_saves : int;  (* hotness-profile checkpoints written *)
}

(* Tiered compilation (docs/SCHEDULER.md): with [config.tiered], a cold
   full-pipeline request is answered from the low-latency fast tier and
   the cache entry is tier-tagged; a background worker re-runs the full
   pipeline (hottest key first) and atomically replaces the entry. *)
type tier = Fast | Full

type entry = { tier : tier; result : Ompgpu_api.compiled }

type upgrade = {
  u_key : string;
  u_file : string;
  u_config : Ompgpu_api.Config.t;
  u_source : string;
}

type t = {
  cfg : config;
  ep : Endpoint.t;
  pool : Sched.Pool.t;
  cache : entry Sched.Cache.t;
  disk : Sched.Disk_cache.t option;
  journal : Journal.t option;
  owns_journal : bool;
  recovery : Journal.recovery;
  supervision : supervision;
  counters : counters;
  profile_restored : int;  (* hot keys reloaded from the saved profile *)
  mutex : Mutex.t;
  (* tier-upgrade state: its own mutex/condition so the worker never
     contends with the request-path counters lock *)
  hot : Observe.Hitcount.t;  (* per-key request counts; promotion order *)
  upgrade_mutex : Mutex.t;
  upgrade_cond : Condition.t;
  mutable upgrade_queue : upgrade list;  (* pending; worker picks hottest *)
  mutable upgrade_stop : bool;
  mutable upgrade_worker : Thread.t option;
  mutable upgrades_queued : int;
  mutable upgrades_done : int;
  mutable upgrades_failed : int;
  mutable last_active : float;  (* last compile admission/settle (t.mutex) *)
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* The hotness table is always bounded: over unbounded distinct-key
   traffic the decay cap keeps profile memory O(hot_keys_cap) while hot
   keys keep their relative order (Observe.Hitcount). *)
let hot_keys_cap = 4096

let profile_file = "hotness.json"
let profile_path dir = Filename.concat dir profile_file

(* Checkpoint the hotness profile (tiered daemons with a state dir only):
   written on drain and on every mid-life journal rotation, loaded at
   create — a restarted daemon re-queues upgrades hottest-first from the
   counts its previous life observed. *)
let save_profile t =
  match t.cfg.state_dir with
  | Some dir when t.cfg.tiered ->
    if Observe.Hitcount.save t.hot ~path:(profile_path dir) then
      locked t (fun () ->
          t.counters.profile_saves <- t.counters.profile_saves + 1)
  | _ -> ()

(* Approximate retained bytes of one warm-cache entry: the payload
   strings dominate; the constant covers record/JSON overhead.  Feeds the
   --cache-max-bytes LRU cap. *)
let entry_bytes e =
  String.length e.result.Ompgpu_api.output
  + String.length e.result.Ompgpu_api.diagnostics
  + 256

let create ?listener ?journal ?supervision cfg =
  let cfg = { cfg with domains = max 1 cfg.domains; capacity = max 0 cfg.capacity } in
  let supervision =
    match supervision with Some s -> s | None -> new_supervision ()
  in
  let ep =
    Endpoint.create ~injector:cfg.injector ?lent:listener
      ~drain_deadline_s:cfg.drain_deadline_s cfg.socket_path
  in
  let journal, recovery, owns_journal =
    match journal with
    | Some (j, r) -> (Some j, r, false)
    | None -> (
      match cfg.state_dir with
      | None -> (None, Journal.empty_recovery, false)
      | Some dir ->
        let j, r =
          Journal.open_ ?max_bytes:cfg.journal_max_bytes
            ~on_rotate:(fun () -> supervision.on_journal_rotate ())
            ~dir ()
        in
        (Some j, r, true))
  in
  let hot = Observe.Hitcount.create ~max_keys:hot_keys_cap () in
  let profile_restored =
    match cfg.state_dir with
    | Some dir when cfg.tiered ->
      Observe.Hitcount.load_into hot ~path:(profile_path dir)
    | _ -> 0
  in
  let t =
    {
      cfg;
      ep;
      (* the pool queue must outsize admission, so an admitted request never
         blocks in [submit] behind the cap it was admitted under *)
      pool =
        Sched.Pool.create
          ~queue_capacity:(max 1 (cfg.capacity + cfg.domains))
          ~domains:cfg.domains ();
      cache =
        Sched.Cache.create ?max_entries:cfg.cache_max_entries
          ?max_bytes:cfg.cache_max_bytes ~size_of:entry_bytes ();
      disk =
        Option.map
          (fun dir ->
            Sched.Disk_cache.create ~injector:cfg.injector
              ?max_bytes:cfg.cache_max_bytes ~dir ())
          cfg.cache_dir;
      journal;
      owns_journal;
      recovery;
      supervision;
      counters =
        {
          compiles = 0;
          compile_ok = 0;
          compile_failed = 0;
          shed = 0;
          stats_requests = 0;
          health_requests = 0;
          in_flight = 0;
          fast_served = 0;
          profile_saves = 0;
        };
      profile_restored;
      mutex = Mutex.create ();
      hot;
      upgrade_mutex = Mutex.create ();
      upgrade_cond = Condition.create ();
      upgrade_queue = [];
      upgrade_stop = false;
      upgrade_worker = None;
      upgrades_queued = 0;
      upgrades_done = 0;
      upgrades_failed = 0;
      last_active = 0.0;
    }
  in
  supervision.on_journal_rotate <- (fun () -> save_profile t);
  t

(* ------------------------------------------------------------------ *)
(* Stats and health                                                    *)
(* ------------------------------------------------------------------ *)

let service_json t =
  let sup = t.supervision in
  J.Obj
    [
      ("restarts", J.Int sup.restarts);
      ("breaker", J.String (if sup.breaker_open then "open" else "closed"));
      ("draining", J.Bool (Endpoint.draining t.ep));
      ("journal", Journal.recovery_to_json t.recovery);
      ( "swept_temps",
        J.Int (match t.disk with Some d -> Sched.Disk_cache.swept d | None -> 0)
      );
      ("injected_drops", J.Int (Endpoint.injected_drops t.ep));
    ]

let health_json t =
  let c = t.counters in
  Ompgpu_api.with_schema
    (J.Obj
       ([
          ( "status",
            J.String (if Endpoint.draining t.ep then "draining" else "ok") );
          ("protocol", J.Int Protocol.version);
          ("uptime_s", J.Float (Endpoint.uptime_s t.ep));
          ("in_flight", J.Int c.in_flight);
          ("capacity", J.Int t.cfg.capacity);
        ]
       @
       match service_json t with J.Obj ms -> ms | _ -> []))

(* The storage-governance view: every bound, ledger and breaker the
   daemon runs under, one object (docs/API.md).  [quarantined] counts
   both scrub-time and read-time digest failures. *)
let storage_json t =
  let opt_int name v =
    match v with Some n -> [ (name, J.Int n) ] | None -> []
  in
  let cache_o =
    [
      ("entries", J.Int (Sched.Cache.length t.cache));
      ("bytes", J.Int (Sched.Cache.bytes t.cache));
      ("evictions", J.Int (Sched.Cache.evictions t.cache));
    ]
    @ opt_int "max_entries" (Sched.Cache.max_entries t.cache)
    @ opt_int "max_bytes" (Sched.Cache.max_bytes t.cache)
  in
  let disk_o =
    match t.disk with
    | None -> [ ("enabled", J.Bool false) ]
    | Some d ->
      [
        ("enabled", J.Bool true);
        ("bytes", J.Int (Sched.Disk_cache.bytes d));
        ("entries", J.Int (Sched.Disk_cache.entries d));
        ("evictions", J.Int (Sched.Disk_cache.evictions d));
        ("scrubbed", J.Int (Sched.Disk_cache.scrubbed d));
        ("quarantined", J.Int (Sched.Disk_cache.corrupt d));
        ("store_failures", J.Int (Sched.Disk_cache.store_failures d));
        ("breaker_trips", J.Int (Sched.Disk_cache.breaker_trips d));
        ("writes_disabled", J.Bool (Sched.Disk_cache.writes_disabled d));
        ("swept_temps", J.Int (Sched.Disk_cache.swept d));
      ]
      @ opt_int "max_bytes" (Sched.Disk_cache.max_bytes d)
  in
  let journal_o =
    [
      ( "rotations",
        J.Int (match t.journal with Some j -> Journal.rotations j | None -> 0)
      );
    ]
    @ opt_int "max_bytes" t.cfg.journal_max_bytes
  in
  J.Obj
    [
      ("cache", J.Obj cache_o);
      ("disk", J.Obj disk_o);
      ("journal", J.Obj journal_o);
    ]

let stats_json t =
  let c, pool_stats =
    locked t (fun () -> (t.counters, Sched.Pool.stats t.pool))
  in
  Ompgpu_api.with_schema
    (J.Obj
       [
         ("protocol", J.Int Protocol.version);
         ("uptime_s", J.Float (Endpoint.uptime_s t.ep));
         ("domains", J.Int (Sched.Pool.domain_count t.pool));
         ("capacity", J.Int t.cfg.capacity);
         ( "requests",
           J.Obj
             [
               ("served", J.Int (Endpoint.served t.ep));
               ("compiles", J.Int c.compiles);
               ("compile_ok", J.Int c.compile_ok);
               ("compile_failed", J.Int c.compile_failed);
               ("shed", J.Int c.shed);
               ("stats", J.Int c.stats_requests);
               ("health", J.Int c.health_requests);
               ("bad", J.Int (Endpoint.bad t.ep));
               ("in_flight", J.Int c.in_flight);
             ] );
         ( "cache",
           J.Obj
             ([
                ("hits", J.Int (Sched.Cache.hits t.cache));
                ("misses", J.Int (Sched.Cache.misses t.cache));
                ("entries", J.Int (Sched.Cache.length t.cache));
              ]
             @
             match t.disk with
             | Some d ->
               [
                 ("disk_hits", J.Int (Sched.Disk_cache.hits d));
                 ("disk_misses", J.Int (Sched.Disk_cache.misses d));
               ]
             | None -> []) );
         ( "pool",
           J.Obj
             [
               ("submitted", J.Int pool_stats.Sched.Pool.submitted);
               ("executed", J.Int pool_stats.Sched.Pool.executed);
               ("stolen", J.Int pool_stats.Sched.Pool.stolen);
               ("max_pending", J.Int pool_stats.Sched.Pool.max_pending);
             ] );
         ( "tiers",
           (let pending, queued, done_, failed =
              Mutex.lock t.upgrade_mutex;
              let v =
                ( List.length t.upgrade_queue,
                  t.upgrades_queued,
                  t.upgrades_done,
                  t.upgrades_failed )
              in
              Mutex.unlock t.upgrade_mutex;
              v
            in
            J.Obj
              [
                ("enabled", J.Bool t.cfg.tiered);
                ("fast_served", J.Int c.fast_served);
                ("hot_keys", J.Int (Observe.Hitcount.distinct t.hot));
                ("upgrades_pending", J.Int pending);
                ("upgrades_queued", J.Int queued);
                ("upgrades_done", J.Int done_);
                ("upgrades_failed", J.Int failed);
                ("profile_restored", J.Int t.profile_restored);
                ("profile_saves", J.Int c.profile_saves);
              ]) );
         ("storage", storage_json t);
         ("service", service_json t);
       ])

(* ------------------------------------------------------------------ *)
(* Compile dispatch                                                    *)
(* ------------------------------------------------------------------ *)

(* find_or_compute caches whatever the thunk returns, and we only want
   successes in the warm cache (a failure is cheap to recompute and the
   client is about to edit the source anyway) — so failures tunnel out. *)
exception Uncached of Ompgpu_api.compiled

(* Run one admitted compile on the pool, under the optional watchdog.  The
   stalled job keeps its domain until it returns on its own; the request
   settles as a structured timeout and the daemon keeps serving. *)
let pooled_compile t ~config ~file source =
  let fut =
    Sched.Pool.submit t.pool (fun () ->
        Ompgpu_api.compile_buffered ~config ~file source)
  in
  match t.cfg.watchdog_s with
  | None -> Sched.Pool.await fut
  | Some seconds -> (
    match Sched.Pool.await_timeout fut ~seconds with
    | Some r -> r
    | None ->
      Ompgpu_api.errored ~file
        (E.make
           (E.Timeout { seconds })
           ~phase:E.Serving
           (Printf.sprintf "request exceeded its %gs watchdog" seconds)))

(* The disk cache mirrors mompc's policy: only non-stats/trace requests
   (their payloads embed wall times), only successes, same key. *)
let disk_eligible (config : Ompgpu_api.Config.t) =
  (not config.Ompgpu_api.Config.want_stats)
  && not config.Ompgpu_api.Config.print_trace

(* A request is tier-eligible when it asks for the full pipeline's
   semantics with cacheable, injection-free output: those are the requests
   whose cold latency the fast tier can hide while the background upgrade
   converges the entry to the exact full-pipeline bytes. *)
let tier_eligible t (config : Ompgpu_api.Config.t) =
  t.cfg.tiered && disk_eligible config
  && config.Ompgpu_api.Config.inject = []
  &&
  match config.Ompgpu_api.Config.pipeline with
  | Some p ->
    Openmpopt.Pass_manager.Pipeline.same_semantics p
      Openmpopt.Pass_manager.Pipeline.full
  | None -> false

let fast_config config =
  Ompgpu_api.Config.with_pipeline Openmpopt.Pass_manager.Pipeline.fast config

(* Fast-tier disk entries live under a derived key, not the request's: a
   non-tiered daemon or a one-shot mompc sharing the --cache-dir looks up
   the plain key only and must never be served fast bytes for a
   full-pipeline request. *)
let fast_disk_key key = Sched.Cache.key [ key; "fast-tier" ]

let disk_find d ~key =
  Option.bind (Sched.Disk_cache.find d ~key) (fun s ->
      match J.of_string s with
      | Ok j -> Ompgpu_api.compiled_of_json j
      | Error _ -> None)

let disk_store t ~config ~tier ~key (r : Ompgpu_api.compiled) =
  match t.disk with
  | Some d when disk_eligible config && r.Ompgpu_api.exit_code = 0 ->
    let key = match tier with Full -> key | Fast -> fast_disk_key key in
    Sched.Disk_cache.store d ~key
      ~data:(J.to_string (Ompgpu_api.compiled_to_json r))
  | _ -> ()

(* Upgrades are strictly idle-time work: a picked upgrade waits for the
   compile path to have been quiet for [idle_window_s] before touching
   the pool, so tiering never taxes cold-request latency — an active
   request burst (its inter-request gaps are far below the window) defers
   every upgrade until the burst ends.  Within a quiet drain the window
   is already elapsed, so consecutive upgrades proceed back to back.
   Under sustained saturation the queue simply waits (visible as
   upgrades_pending in stats); a drain/stop releases the wait
   immediately. *)
let idle_window_s = 0.05

let rec wait_for_idle t =
  let stopping =
    Mutex.lock t.upgrade_mutex;
    let s = t.upgrade_stop in
    Mutex.unlock t.upgrade_mutex;
    s
  in
  if not stopping then begin
    let busy, last =
      locked t (fun () -> (t.counters.in_flight > 0, t.last_active))
    in
    if busy || Unix.gettimeofday () -. last < idle_window_s then begin
      Thread.delay 0.002;
      wait_for_idle t
    end
  end

(* The upgrade worker: drains the queue hottest-key-first (per-key request
   counts in [t.hot]; queue order on ties) on the shared pool, atomically
   replacing the warm entry (Sched.Cache.replace) and the disk entry
   (Disk_cache.store is temp+rename) with the full-pipeline result.  The
   full-pipeline outcome is authoritative even when it is a failure — the
   request asked for full semantics, so the entry must converge to the
   exact full-pipeline answer, failing or not; this is the one deliberate
   exception to the successes-only warm-cache policy (the failing disk
   store is still skipped).  Only an upgrade that raises (a poisoned
   pool, a shutdown race) leaves the fast entry in place. *)
let rec upgrade_loop t =
  Mutex.lock t.upgrade_mutex;
  while t.upgrade_queue = [] && not t.upgrade_stop do
    Condition.wait t.upgrade_cond t.upgrade_mutex
  done;
  if t.upgrade_stop then Mutex.unlock t.upgrade_mutex
  else begin
    let u =
      match List.rev t.upgrade_queue (* oldest first, so ties stay FIFO *) with
      | [] -> assert false
      | first :: rest ->
        List.fold_left
          (fun best v ->
            if
              Observe.Hitcount.count t.hot v.u_key
              > Observe.Hitcount.count t.hot best.u_key
            then v
            else best)
          first rest
    in
    t.upgrade_queue <- List.filter (fun v -> v.u_key <> u.u_key) t.upgrade_queue;
    Mutex.unlock t.upgrade_mutex;
    wait_for_idle t;
    let promoted =
      match pooled_compile t ~config:u.u_config ~file:u.u_file u.u_source with
      | r ->
        Sched.Cache.replace t.cache ~key:u.u_key { tier = Full; result = r };
        disk_store t ~config:u.u_config ~tier:Full ~key:u.u_key r;
        true
      | exception _ -> false
    in
    Mutex.lock t.upgrade_mutex;
    if promoted then t.upgrades_done <- t.upgrades_done + 1
    else t.upgrades_failed <- t.upgrades_failed + 1;
    Mutex.unlock t.upgrade_mutex;
    upgrade_loop t
  end

(* Enqueue is idempotent per key, and the worker thread starts lazily on
   the first upgrade so non-tiered daemons never pay for one. *)
let enqueue_upgrade t ~key ~config ~file ~source =
  Mutex.lock t.upgrade_mutex;
  (if not (t.upgrade_stop || List.exists (fun u -> u.u_key = key) t.upgrade_queue)
   then begin
     t.upgrade_queue <-
       { u_key = key; u_file = file; u_config = config; u_source = source }
       :: t.upgrade_queue;
     t.upgrades_queued <- t.upgrades_queued + 1;
     if t.upgrade_worker = None then
       t.upgrade_worker <- Some (Thread.create upgrade_loop t)
     else Condition.signal t.upgrade_cond
   end);
  Mutex.unlock t.upgrade_mutex

let stop_upgrader t =
  Mutex.lock t.upgrade_mutex;
  t.upgrade_stop <- true;
  Condition.broadcast t.upgrade_cond;
  let worker = t.upgrade_worker in
  t.upgrade_worker <- None;
  Mutex.unlock t.upgrade_mutex;
  Option.iter Thread.join worker

let compute_compile t ~config ~file ~key source =
  let eligible = tier_eligible t config in
  if eligible then ignore (Observe.Hitcount.bump t.hot key);
  let compile_and_persist () =
    let e =
      if eligible then begin
        let fast = pooled_compile t ~config:(fast_config config) ~file source in
        if fast.Ompgpu_api.exit_code = 0 then { tier = Fast; result = fast }
        else
          (* the fast tier cannot stand in for a failing compile: fall
             back to the asked-for full pipeline synchronously so the
             client sees the authoritative outcome (no upgrade needed) *)
          { tier = Full; result = pooled_compile t ~config ~file source }
      end
      else { tier = Full; result = pooled_compile t ~config ~file source }
    in
    disk_store t ~config ~tier:e.tier ~key e.result;
    e
  in
  let thunk () =
    let e =
      match t.disk with
      | Some d when disk_eligible config -> (
        (* the plain key always holds full-pipeline bytes; a tiered boot
           also accepts a leftover fast entry (and re-queues its upgrade
           via the Fast tag below) *)
        match disk_find d ~key with
        | Some r -> { tier = Full; result = r }
        | None ->
          if eligible then
            match disk_find d ~key:(fast_disk_key key) with
            | Some r -> { tier = Fast; result = r }
            | None -> compile_and_persist ()
          else compile_and_persist ())
      | _ -> compile_and_persist ()
    in
    if e.result.Ompgpu_api.exit_code = 0 then e else raise (Uncached e.result)
  in
  match Sched.Cache.find_or_compute t.cache ~key thunk with
  | e ->
    if e.tier = Fast then begin
      locked t (fun () -> t.counters.fast_served <- t.counters.fast_served + 1);
      enqueue_upgrade t ~key ~config ~file ~source
    end;
    e.result
  | exception Uncached r -> r

let handle_compile t ~id ~file ~config source =
  (* Admission control: request capacity+1 — and any compile arriving
     while the daemon drains — is shed *now* with a structured overload
     instead of queueing without bound.  The client's bounded retry
     (overload is transient) is the backpressure loop. *)
  let admitted =
    locked t (fun () ->
        if Endpoint.draining t.ep then Error (`Draining t.counters.in_flight)
        else if t.counters.in_flight >= t.cfg.capacity then begin
          t.counters.shed <- t.counters.shed + 1;
          Error (`Over t.counters.in_flight)
        end
        else begin
          t.counters.in_flight <- t.counters.in_flight + 1;
          t.counters.compiles <- t.counters.compiles + 1;
          t.last_active <- Unix.gettimeofday ();
          Ok ()
        end)
  in
  match admitted with
  | Error (`Draining pending) ->
    locked t (fun () -> t.counters.shed <- t.counters.shed + 1);
    Ompgpu_api.errored ~file
      (E.make
         (E.Overload { pending; capacity = t.cfg.capacity })
         ~phase:E.Serving
         "request shed: the daemon is draining; retry against the restarted \
          daemon or fall back to in-process compilation")
  | Error (`Over pending) ->
    Ompgpu_api.errored ~file
      (E.make
         (E.Overload { pending; capacity = t.cfg.capacity })
         ~phase:E.Serving
         (Printf.sprintf
            "request shed: %d compile(s) in flight against a capacity of %d; \
             retry with backoff"
            pending t.cfg.capacity))
  | Ok () ->
    let key = Ompgpu_api.cache_key ~file ~config ~source in
    let seq =
      Option.map
        (fun j ->
          Journal.begin_request j ~id
            ~op:(if config.Ompgpu_api.Config.run_sim then "run" else "compile")
            ~key)
        t.journal
    in
    let result =
      Fun.protect
        ~finally:(fun () ->
          locked t (fun () ->
              t.counters.in_flight <- t.counters.in_flight - 1;
              t.last_active <- Unix.gettimeofday ()))
        (fun () -> compute_compile t ~config ~file ~key source)
    in
    locked t (fun () ->
        if result.Ompgpu_api.exit_code = 0 then
          t.counters.compile_ok <- t.counters.compile_ok + 1
        else t.counters.compile_failed <- t.counters.compile_failed + 1);
    (match (t.journal, seq) with
    | Some j, Some seq ->
      Journal.settle_request j ~seq ~exit_code:result.Ompgpu_api.exit_code
    | _ -> ());
    result

(* ------------------------------------------------------------------ *)
(* Dispatch, serve loop, teardown                                      *)
(* ------------------------------------------------------------------ *)

let stop t = Endpoint.stop t.ep

let dispatch t _raw = function
  | Protocol.Stats { id } ->
    locked t (fun () ->
        t.counters.stats_requests <- t.counters.stats_requests + 1);
    Endpoint.Reply (Protocol.Stats_reply { id; stats = stats_json t })
  | Protocol.Health { id } ->
    locked t (fun () ->
        t.counters.health_requests <- t.counters.health_requests + 1);
    Endpoint.Reply (Protocol.Health_reply { id; health = health_json t })
  | Protocol.Fleet { id } ->
    (* fleet aggregation is the router's job; a bare shard saying "yes"
       here would masquerade as a one-shard fleet *)
    Endpoint.Reply
      (Protocol.Rejected
         {
           id = Some id;
           error =
             E.make E.Bad_request ~phase:E.Serving
               "fleet: this daemon is a single shard; ask the fleet router \
                (mompd route)";
         })
  | Protocol.Shutdown { id } -> Endpoint.Reply_and_stop (Protocol.Shutdown_ack { id })
  | Protocol.Compile { id; file; source; config; tenant = _ } ->
    let op = if config.Ompgpu_api.Config.run_sim then "run" else "compile" in
    let result = handle_compile t ~id ~file ~config source in
    Endpoint.Reply (Protocol.Compiled { id; op; result })

(* A clean stop drains first (Endpoint.serve): the drain is journaled and
   the hotness profile checkpointed while the table is final — the next
   tiered boot restores it and re-queues upgrades hottest-first.  Either
   way, pending upgrades are abandoned (their fast entries persist under
   the derived disk key and re-queue on the next tiered boot), the worker
   is joined before the pool it submits to goes down, and an owned
   journal is closed.  A serve-loop crash re-raises for the supervisor. *)
let serve_forever t =
  Fun.protect
    ~finally:(fun () ->
      stop_upgrader t;
      Sched.Pool.shutdown t.pool;
      if t.owns_journal then Option.iter Journal.close t.journal)
    (fun () ->
      let unanswered = Endpoint.serve t.ep (dispatch t) in
      Option.iter
        (fun j -> Journal.event j "drain" [ ("busy", J.Int unanswered) ])
        t.journal;
      save_profile t)
