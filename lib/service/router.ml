(* The compile-fleet router (see the .mli and docs/FLEET.md).

   Layering mirrors Server: the Endpoint owns the socket, the connection
   threads, the framing and the drain, and this module is the dispatch
   they call; the shards own all compile work (each one a full
   Supervisor+Journal+Server stack).  The router's own work per request is
   one ring lookup, one admission decision and one relay — it never
   compiles unless the whole fleet is unreachable.

   The one invariant everything here defends: a reply through the router
   is byte-identical to a reply from a lone daemon.  Compile requests are
   relayed as the client's original bytes and responses come back
   verbatim; the in-process fallback uses the exact encoder the shards
   use.  Routing reads a *parsed copy* and never touches the wire. *)

module J = Observe.Json
module E = Fault.Ompgpu_error

type backend = {
  name : string;
  socket_path : string;
  start : unit -> unit;
  stop : unit -> unit;
  alive : unit -> bool;
  pid : unit -> int option;
}

let inproc_backend (sup_cfg : Supervisor.config) ~name =
  (* one slot, written only by [start]/[stop] callers (create + the
     monitor thread), read by [alive] *)
  let current = ref None in
  let start () =
    let sup = Supervisor.create sup_cfg in
    let running = ref true in
    let thread =
      Thread.create
        (fun () ->
          (try ignore (Supervisor.run sup) with _ -> ());
          running := false)
        ()
    in
    current := Some (sup, running, thread)
  in
  let stop () =
    match !current with
    | None -> ()
    | Some (sup, _, thread) ->
      Supervisor.stop sup;
      (try Thread.join thread with _ -> ())
  in
  let alive () =
    match !current with Some (_, running, _) -> !running | None -> false
  in
  {
    name;
    socket_path = sup_cfg.Supervisor.server.Server.socket_path;
    start;
    stop;
    alive;
    pid = (fun () -> None);
  }

(* ------------------------------------------------------------------ *)
(* Per-tenant fair-queue admission                                     *)
(* ------------------------------------------------------------------ *)

module Admission = struct
  type slot = { mutable in_flight : int; mutable waiting : int }

  type t = {
    capacity : int;
    queue_deadline_s : float;
    mutex : Mutex.t;
    tenants : (string, slot) Hashtbl.t;
    mutable total : int;
  }

  type outcome = Admitted | Shed of { pending : int; capacity : int }

  let create ~capacity ~queue_deadline_s =
    {
      capacity = max 1 capacity;
      queue_deadline_s = max 0. queue_deadline_s;
      mutex = Mutex.create ();
      tenants = Hashtbl.create 8;
      total = 0;
    }

  let slot t tenant =
    match Hashtbl.find_opt t.tenants tenant with
    | Some s -> s
    | None ->
      let s = { in_flight = 0; waiting = 0 } in
      Hashtbl.add t.tenants tenant s;
      s

  let active t =
    Hashtbl.fold
      (fun _ s n -> if s.in_flight > 0 || s.waiting > 0 then n + 1 else n)
      t.tenants 0

  (* A tenant's share shrinks as tenants show up and is never zero: with
     [capacity] 4 and three active tenants each holds one slot and the
     fourth slot goes to whoever asks first — a greedy tenant saturates
     its share and waits, it cannot starve the others. *)
  let acquire t ~tenant =
    Mutex.lock t.mutex;
    let s = slot t tenant in
    s.waiting <- s.waiting + 1;
    let deadline = Observe.Clock.now_s () +. t.queue_deadline_s in
    let rec wait () =
      let share = max 1 (t.capacity / max 1 (active t)) in
      if t.total < t.capacity && s.in_flight < share then begin
        s.waiting <- s.waiting - 1;
        s.in_flight <- s.in_flight + 1;
        t.total <- t.total + 1;
        Mutex.unlock t.mutex;
        Admitted
      end
      else if Observe.Clock.now_s () >= deadline then begin
        s.waiting <- s.waiting - 1;
        let pending = t.total in
        Mutex.unlock t.mutex;
        Shed { pending; capacity = t.capacity }
      end
      else begin
        (* OCaml's Condition has no timed wait; a short poll bounds the
           queue latency without missing wakeups *)
        Mutex.unlock t.mutex;
        Thread.delay 0.002;
        Mutex.lock t.mutex;
        wait ()
      end
    in
    wait ()

  let release t ~tenant =
    Mutex.lock t.mutex;
    (match Hashtbl.find_opt t.tenants tenant with
    | Some s -> s.in_flight <- max 0 (s.in_flight - 1)
    | None -> ());
    t.total <- max 0 (t.total - 1);
    Mutex.unlock t.mutex

  let in_flight t =
    Mutex.lock t.mutex;
    let n = t.total in
    Mutex.unlock t.mutex;
    n
end

(* ------------------------------------------------------------------ *)
(* Config, shard health, router state                                  *)
(* ------------------------------------------------------------------ *)

type config = {
  socket_path : string;
  capacity : int;
  queue_deadline_s : float;
  probe_interval_s : float;
  max_respawns : int;
  eject_cooldown_s : float;
  injector : Fault.Injector.t;
  log : string -> unit;
}

(* Per-request socket deadline to a shard. *)
let relay_deadline_s = 30.0
let probe_deadline_s = 1.0

(* Consecutive probe failures that make a shard [degraded], then [down]. *)
let degraded_after = 1
let down_after = 2

(* The sliding window [max_respawns] counts respawns in. *)
let respawn_window_s = 10.0

let default_config =
  {
    socket_path = "./mompd-router.sock";
    capacity = 16;
    queue_deadline_s = 0.25;
    probe_interval_s = 0.2;
    max_respawns = 3;
    eject_cooldown_s = 2.0;
    injector = Fault.Injector.none;
    log = ignore;
  }

type shard_state = Up | Degraded | Down | Ejected

let state_name = function
  | Up -> "up"
  | Degraded -> "degraded"
  | Down -> "down"
  | Ejected -> "ejected"

type shard = {
  backend : backend;
  mutable state : shard_state;
  mutable consec_fail : int;  (* consecutive probe failures *)
  mutable probes_ok : int;
  mutable probes_fail : int;
  mutable respawns : int;
  mutable respawn_times : float list;  (* sliding ejection window *)
  mutable ejected_until : float;
  mutable failovers_from : int;  (* requests routed away after a failure *)
}

type counters = {
  mutable routed : int;  (* compile lines settled by a shard *)
  mutable failovers : int;  (* candidate shards skipped after a failure *)
  mutable fallbacks : int;  (* compiles settled in-process *)
  mutable quota_shed : int;  (* fair-queue deadline expiries, drain sheds *)
  mutable fleet_requests : int;
  mutable stats_requests : int;
  mutable health_requests : int;
}

type t = {
  cfg : config;
  ring : Ring.t;
  shards : shard array;  (* aligned with [Ring.shards] *)
  admission : Admission.t;
  ep : Endpoint.t;
  mutex : Mutex.t;
  counters : counters;
  mutable daemons : Thread.t list;  (* prober + monitor *)
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let create cfg backends =
  if backends = [] then invalid_arg "Router.create: no shards";
  let cfg = { cfg with capacity = max 1 cfg.capacity } in
  let ring = Ring.create (List.map (fun b -> b.name) backends) in
  let shards =
    Array.map
      (fun name ->
        {
          backend = List.find (fun b -> b.name = name) backends;
          state = Down;  (* probed up, never assumed up *)
          consec_fail = 0;
          probes_ok = 0;
          probes_fail = 0;
          respawns = 0;
          respawn_times = [];
          ejected_until = 0.;
          failovers_from = 0;
        })
      (Ring.shards ring)
  in
  Array.iter (fun s -> s.backend.start ()) shards;
  {
    cfg;
    ring;
    shards;
    admission =
      Admission.create ~capacity:cfg.capacity
        ~queue_deadline_s:cfg.queue_deadline_s;
    (* no fault sites: the injector's conn-drop, partial-frame,
       slow-client and daemon-kill belong to the shards' servers; the
       router drains on the daemon's default deadline *)
    ep =
      Endpoint.create
        ~drain_deadline_s:Server.default_config.Server.drain_deadline_s
        cfg.socket_path;
    mutex = Mutex.create ();
    counters =
      {
        routed = 0;
        failovers = 0;
        fallbacks = 0;
        quota_shed = 0;
        fleet_requests = 0;
        stats_requests = 0;
        health_requests = 0;
      };
    daemons = [];
  }

(* ------------------------------------------------------------------ *)
(* Health probing and respawn/ejection                                 *)
(* ------------------------------------------------------------------ *)

(* Every exchange with a shard — probe, relay, live stats — is one client
   connection under a deadline; a failure comes back as its reason. *)
let with_shard ~deadline_s shard f =
  match Client.connect ~deadline_s ~socket_path:shard.backend.socket_path () with
  | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)
  | c ->
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () -> Result.map_error (fun e -> e.E.message) (f c))

let probe_once t shard =
  let injected =
    Fault.Injector.fire t.cfg.injector Fault.Injector.Probe_timeout
  in
  (not injected)
  && Result.is_ok
       (with_shard ~deadline_s:probe_deadline_s shard (fun c -> Client.health c ()))

let transition t shard next =
  if shard.state <> next then begin
    t.cfg.log
      (Printf.sprintf "shard %s: %s -> %s" shard.backend.name
         (state_name shard.state) (state_name next));
    shard.state <- next
  end

let probe_shard t shard =
  let ok = probe_once t shard in
  locked t (fun () ->
      if ok then begin
        shard.probes_ok <- shard.probes_ok + 1;
        shard.consec_fail <- 0;
        if shard.state <> Ejected then transition t shard Up
      end
      else begin
        shard.probes_fail <- shard.probes_fail + 1;
        shard.consec_fail <- shard.consec_fail + 1;
        if shard.state <> Ejected then
          if shard.consec_fail >= down_after then transition t shard Down
          else if shard.consec_fail >= degraded_after then
            transition t shard Degraded
      end)

let prober t =
  while not (Endpoint.draining t.ep) do
    Array.iter
      (fun s ->
        if
          (not (Endpoint.draining t.ep))
          && locked t (fun () -> s.state <> Ejected)
        then probe_shard t s)
      t.shards;
    Thread.delay t.cfg.probe_interval_s
  done

(* The monitor owns [backend.alive]/[backend.start]: a dead shard is
   respawned with its place in the sliding window recorded, and a shard
   that burns through [max_respawns] respawns inside [respawn_window_s]
   is ejected — no longer probed, no longer a ring candidate — until the
   cooldown expires, when the window is cleared and it rejoins as [down]
   for the prober to vouch for. *)
let monitor_shard t shard =
  let now = Observe.Clock.now_s () in
  match locked t (fun () -> shard.state) with
  | Ejected ->
    if now >= shard.ejected_until then begin
      locked t (fun () ->
          shard.respawn_times <- [];
          shard.consec_fail <- 0;
          transition t shard Down);
      if not (shard.backend.alive ()) then begin
        locked t (fun () -> shard.respawns <- shard.respawns + 1);
        try shard.backend.start () with _ -> ()
      end
    end
  | _ ->
    if not (shard.backend.alive ()) then begin
      let recent =
        List.filter
          (fun ts -> ts > now -. respawn_window_s)
          shard.respawn_times
      in
      if List.length recent >= t.cfg.max_respawns then begin
        locked t (fun () ->
            shard.ejected_until <- now +. t.cfg.eject_cooldown_s;
            transition t shard Ejected);
        t.cfg.log
          (Printf.sprintf "shard %s: crash-looping (%d respawns in %gs), ejected for %gs"
             shard.backend.name (List.length recent) respawn_window_s
             t.cfg.eject_cooldown_s)
      end
      else begin
        locked t (fun () ->
            shard.respawn_times <- now :: recent;
            shard.respawns <- shard.respawns + 1;
            shard.consec_fail <- 0;
            transition t shard Down);
        t.cfg.log (Printf.sprintf "shard %s: dead, respawning" shard.backend.name);
        try shard.backend.start () with _ -> ()
      end
    end

let monitor t =
  while not (Endpoint.draining t.ep) do
    Array.iter (fun s -> monitor_shard t s) t.shards;
    Thread.delay (min 0.05 t.cfg.probe_interval_s)
  done

(* ------------------------------------------------------------------ *)
(* Ring candidates and the raw-line relay                              *)
(* ------------------------------------------------------------------ *)

(* Preference order for a key: ring order, ejected shards excluded, then
   stably bucketed up < degraded < down — a down shard is still worth one
   connect attempt (it may be mid-boot) before the in-process fallback.
   The injector can skip the primary ([shard-down]) or rotate the order
   ([ring-skew]): both produce cold-but-correct routing, which is exactly
   what the chaos harness wants to observe surviving. *)
let candidates t key =
  let ranked =
    locked t (fun () ->
        List.filter_map
          (fun i ->
            match t.shards.(i).state with
            | Ejected -> None
            | Up -> Some (0, i)
            | Degraded -> Some (1, i)
            | Down -> Some (2, i))
          (Ring.order t.ring key))
  in
  let order = List.map snd (List.stable_sort (fun (a, _) (b, _) -> compare a b) ranked) in
  let order =
    if Fault.Injector.fire t.cfg.injector Fault.Injector.Ring_skew then
      match order with [] | [ _ ] -> order | hd :: tl -> tl @ [ hd ]
    else order
  in
  if Fault.Injector.fire t.cfg.injector Fault.Injector.Shard_down then
    match order with [] -> [] | _ :: tl -> tl
  else order

(* One request relayed to one shard over a fresh connection: the client's
   original line out, the shard's response line back, both verbatim. *)
let relay_once shard line =
  with_shard ~deadline_s:relay_deadline_s shard (fun c ->
      Client.roundtrip_line c line)

(* A shard answering "shed" (a settled Overload, exit 40) is healthy but
   full; the failover ladder tries the other shards before giving up. *)
let is_shed_line line =
  match J.of_string line with
  | Ok j -> (
    match Option.bind (J.member "exit_code" j) J.to_int with
    | Some 40 -> true
    | _ -> false)
  | Error _ -> false

(* A transport failure against a shard is stronger evidence than a missed
   probe: mark it down now, let the prober vouch it back up. *)
let strike t shard reason =
  locked t (fun () ->
      shard.failovers_from <- shard.failovers_from + 1;
      if shard.state <> Ejected then transition t shard Down);
  t.cfg.log
    (Printf.sprintf "shard %s: relay failed (%s), failing over"
       shard.backend.name reason)

(* ------------------------------------------------------------------ *)
(* Documents                                                           *)
(* ------------------------------------------------------------------ *)

let shard_counts t =
  locked t (fun () ->
      Array.fold_left
        (fun (up, degraded, down, ejected) s ->
          match s.state with
          | Up -> (up + 1, degraded, down, ejected)
          | Degraded -> (up, degraded + 1, down, ejected)
          | Down -> (up, degraded, down + 1, ejected)
          | Ejected -> (up, degraded, down, ejected + 1))
        (0, 0, 0, 0) t.shards)

let shard_stats_live shard =
  Result.to_option
    (with_shard ~deadline_s:probe_deadline_s shard (fun c -> Client.stats c ()))

(* Roll up the shards' [storage] sections (Server.storage_json) into one
   fleet-wide view: reachable, non-ejected shards' cache/disk/journal
   counters summed, plus how many shards actually reported.  The router
   itself holds no cache — its in-process fallback compiles are one-shot
   — so every number here is shard truth, fetched live under the probe
   deadline. *)
let storage_rollup t =
  let at path doc =
    List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some doc) path
  in
  let int_at path doc =
    Option.value ~default:0 (Option.bind (at path doc) J.to_int)
  in
  let reporting = ref 0 in
  let cache_entries = ref 0 and cache_bytes = ref 0 in
  let cache_evictions = ref 0 in
  let disk_bytes = ref 0 and disk_entries = ref 0 in
  let disk_evictions = ref 0 and disk_quarantined = ref 0 in
  let store_failures = ref 0 and breaker_trips = ref 0 in
  let rotations = ref 0 in
  Array.iter
    (fun s ->
      if locked t (fun () -> s.state) <> Ejected then
        match Option.bind (shard_stats_live s) (J.member "storage") with
        | None -> ()
        | Some st ->
          incr reporting;
          cache_entries := !cache_entries + int_at [ "cache"; "entries" ] st;
          cache_bytes := !cache_bytes + int_at [ "cache"; "bytes" ] st;
          cache_evictions :=
            !cache_evictions + int_at [ "cache"; "evictions" ] st;
          disk_bytes := !disk_bytes + int_at [ "disk"; "bytes" ] st;
          disk_entries := !disk_entries + int_at [ "disk"; "entries" ] st;
          disk_evictions := !disk_evictions + int_at [ "disk"; "evictions" ] st;
          disk_quarantined :=
            !disk_quarantined + int_at [ "disk"; "quarantined" ] st;
          store_failures :=
            !store_failures + int_at [ "disk"; "store_failures" ] st;
          breaker_trips := !breaker_trips + int_at [ "disk"; "breaker_trips" ] st;
          rotations := !rotations + int_at [ "journal"; "rotations" ] st)
    t.shards;
  J.Obj
    [
      ("shards_reporting", J.Int !reporting);
      ( "cache",
        J.Obj
          [
            ("entries", J.Int !cache_entries);
            ("bytes", J.Int !cache_bytes);
            ("evictions", J.Int !cache_evictions);
          ] );
      ( "disk",
        J.Obj
          [
            ("bytes", J.Int !disk_bytes);
            ("entries", J.Int !disk_entries);
            ("evictions", J.Int !disk_evictions);
            ("quarantined", J.Int !disk_quarantined);
            ("store_failures", J.Int !store_failures);
            ("breaker_trips", J.Int !breaker_trips);
          ] );
      ("journal", J.Obj [ ("rotations", J.Int !rotations) ]);
    ]

let router_json t =
  let c = t.counters in
  locked t (fun () ->
      J.Obj
        [
          ("served", J.Int (Endpoint.served t.ep));
          ("routed", J.Int c.routed);
          ("failovers", J.Int c.failovers);
          ("fallbacks", J.Int c.fallbacks);
          ("shed", J.Int c.quota_shed);
          ("fleet", J.Int c.fleet_requests);
          ("stats", J.Int c.stats_requests);
          ("health", J.Int c.health_requests);
          ("bad", J.Int (Endpoint.bad t.ep));
        ])

let health_json t =
  let up, _, _, _ = shard_counts t in
  Ompgpu_api.with_schema
    (J.Obj
       [
         ( "status",
           J.String
             (if Endpoint.draining t.ep then "draining"
              else if up > 0 then "ok"
              else "degraded") );
         ("role", J.String "router");
         ("protocol", J.Int Protocol.version);
         ("uptime_s", J.Float (Endpoint.uptime_s t.ep));
         ("shards_up", J.Int up);
         ("shards_total", J.Int (Array.length t.shards));
         ("in_flight", J.Int (Admission.in_flight t.admission));
         ("capacity", J.Int t.cfg.capacity);
       ])

let stats_json t =
  let up, degraded, down, ejected = shard_counts t in
  Ompgpu_api.with_schema
    (J.Obj
       [
         ("role", J.String "router");
         ("protocol", J.Int Protocol.version);
         ("uptime_s", J.Float (Endpoint.uptime_s t.ep));
         ("capacity", J.Int t.cfg.capacity);
         ("in_flight", J.Int (Admission.in_flight t.admission));
         ("requests", router_json t);
         ("storage", storage_rollup t);
         ( "shards",
           J.Obj
             [
               ("total", J.Int (Array.length t.shards));
               ("up", J.Int up);
               ("degraded", J.Int degraded);
               ("down", J.Int down);
               ("ejected", J.Int ejected);
             ] );
       ])

let fleet_json t =
  let shard_entries =
    Array.to_list
      (Array.map
         (fun s ->
           let state, probes_ok, probes_fail, respawns, failovers_from =
             locked t (fun () ->
                 (s.state, s.probes_ok, s.probes_fail, s.respawns, s.failovers_from))
           in
           J.Obj
             [
               ("name", J.String s.backend.name);
               ("socket", J.String s.backend.socket_path);
               ( "pid",
                 match s.backend.pid () with
                 | Some pid -> J.Int pid
                 | None -> J.Null );
               ("state", J.String (state_name state));
               ("probes_ok", J.Int probes_ok);
               ("probes_failed", J.Int probes_fail);
               ("respawns", J.Int respawns);
               ("failovers_from", J.Int failovers_from);
               ( "stats",
                 match
                   if state = Ejected then None else shard_stats_live s
                 with
                 | Some doc -> doc
                 | None -> J.Null );
             ])
         t.shards)
  in
  Ompgpu_api.with_schema
    (J.Obj
       [
         ("role", J.String "router");
         ("protocol", J.Int Protocol.version);
         ("uptime_s", J.Float (Endpoint.uptime_s t.ep));
         ( "ring",
           J.Obj
             [
               ("vnodes", J.Int Ring.vnodes);
               ( "shards",
                 J.List
                   (Array.to_list
                      (Array.map (fun n -> J.String n) (Ring.shards t.ring))) );
             ] );
         ("capacity", J.Int t.cfg.capacity);
         ("in_flight", J.Int (Admission.in_flight t.admission));
         ("router", router_json t);
         ("shards", J.List shard_entries);
       ])


(* ------------------------------------------------------------------ *)
(* Request dispatch, serve loop                                        *)
(* ------------------------------------------------------------------ *)

(* One compile through the fleet: admission, then the failover ladder —
   every live candidate in ring order, then the in-process fallback — so
   the request settles with the right bytes no matter which shards died
   mid-flight.  Zero client-visible transport failures by construction.
   A draining router sheds new compiles, as a draining daemon does. *)
let handle_compile t ~raw ~id ~file ~source ~config ~tenant =
  let op = if config.Ompgpu_api.Config.run_sim then "run" else "compile" in
  let settled result = Endpoint.Reply (Protocol.Compiled { id; op; result }) in
  let shed ~pending ~capacity message =
    locked t (fun () -> t.counters.quota_shed <- t.counters.quota_shed + 1);
    settled
      (Ompgpu_api.errored ~file
         (E.make (E.Overload { pending; capacity }) ~phase:E.Serving message))
  in
  let tenant_key = Option.value tenant ~default:"<anon>" in
  if Endpoint.draining t.ep then
    shed
      ~pending:(Admission.in_flight t.admission)
      ~capacity:t.cfg.capacity
      "request shed: the router is draining; retry against the restarted \
       router or fall back to in-process compilation"
  else
    match Admission.acquire t.admission ~tenant:tenant_key with
    | Admission.Shed { pending; capacity } ->
      shed ~pending ~capacity
        (Printf.sprintf
           "request shed: tenant %S is over its fleet share (%d in flight \
            against a fleet capacity of %d); retry with backoff"
           tenant_key pending capacity)
    | Admission.Admitted ->
      Fun.protect
        ~finally:(fun () -> Admission.release t.admission ~tenant:tenant_key)
        (fun () ->
          let key = Ompgpu_api.cache_key ~file ~config ~source in
          let rec ladder = function
            | [] ->
              (* the whole fleet is unreachable or shedding: settle the
                 request here — the same compile the shards would run,
                 byte-identical by construction *)
              locked t (fun () ->
                  t.counters.fallbacks <- t.counters.fallbacks + 1);
              settled (Ompgpu_api.compile_buffered ~config ~file source)
            | i :: rest -> (
              let shard = t.shards.(i) in
              match relay_once shard raw with
              | Ok resp when not (is_shed_line resp) ->
                locked t (fun () -> t.counters.routed <- t.counters.routed + 1);
                Endpoint.Relay resp
              | Ok _shed ->
                locked t (fun () ->
                    t.counters.failovers <- t.counters.failovers + 1);
                ladder rest
              | Error reason ->
                strike t shard reason;
                locked t (fun () ->
                    t.counters.failovers <- t.counters.failovers + 1);
                ladder rest)
          in
          ladder (candidates t key))

let dispatch t raw = function
  | Protocol.Stats { id } ->
    locked t (fun () ->
        t.counters.stats_requests <- t.counters.stats_requests + 1);
    Endpoint.Reply (Protocol.Stats_reply { id; stats = stats_json t })
  | Protocol.Health { id } ->
    locked t (fun () ->
        t.counters.health_requests <- t.counters.health_requests + 1);
    Endpoint.Reply (Protocol.Health_reply { id; health = health_json t })
  | Protocol.Fleet { id } ->
    locked t (fun () ->
        t.counters.fleet_requests <- t.counters.fleet_requests + 1);
    Endpoint.Reply (Protocol.Fleet_reply { id; fleet = fleet_json t })
  | Protocol.Shutdown { id } -> Endpoint.Reply_and_stop (Protocol.Shutdown_ack { id })
  | Protocol.Compile { id; file; source; config; tenant } ->
    handle_compile t ~raw ~id ~file ~source ~config ~tenant

let stop t = Endpoint.stop t.ep

(* The prober and monitor watch the endpoint's draining flag, so once the
   drain is over they are joined, and every backend is stopped. *)
let serve_forever t =
  locked t (fun () ->
      t.daemons <- [ Thread.create prober t; Thread.create monitor t ]);
  Fun.protect
    ~finally:(fun () ->
      List.iter Thread.join (locked t (fun () -> t.daemons));
      Array.iter (fun s -> try s.backend.stop () with _ -> ()) t.shards)
    (fun () -> ignore (Endpoint.serve t.ep (dispatch t)))
