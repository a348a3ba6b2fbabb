(* mompd: the persistent MiniOMP compile daemon.

     mompd serve --socket ./mompd.sock -j 4 --cache-dir .cache &
     mompc --daemon ./mompd.sock file.momp        # warm-cache compiles
     mompd stats                                  # live counters (schema 2)
     mompd health                                 # liveness/readiness JSON
     mompd request < requests.jsonl               # raw protocol access
     mompd shutdown

   The daemon keeps a Sched.Pool of worker domains and warm in-memory +
   on-disk compile caches alive across requests, so repeated compiles of
   the same source are cache hits whichever client sends them.  The serve
   loop runs under a supervisor: a crash restarts it on the same bound
   socket with jittered backoff, and a crash loop opens a circuit breaker
   (exit 41).  SIGTERM/SIGINT drain gracefully.  Wire protocol v3
   (newline-delimited JSON) is specified in docs/API.md. *)

open Cmdliner

let default_socket = Service.Server.default_config.Service.Server.socket_path

let socket_arg = Cli_common.socket ~default:default_socket ()

let require_socket = function
  | Some s -> s
  | None -> default_socket

(* Surface a connect failure as the taxonomy does everywhere else: one
   stable line, the kind's exit code. *)
let with_client socket_path f =
  (* the daemon hanging up mid-request (e.g. a serve-loop crash between
     accept and respond) must be a structured transport error, not a
     process-killing SIGPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Service.Client.with_connection ~socket_path f with
  | exception Unix.Unix_error (err, _, _) ->
    let e =
      Fault.Ompgpu_error.make Fault.Ompgpu_error.Internal
        ~phase:Fault.Ompgpu_error.Serving
        (Printf.sprintf "cannot reach daemon at %s: %s" socket_path
           (Unix.error_message err))
    in
    Fmt.epr "mompd: %s@." (Fault.Ompgpu_error.to_string e);
    Fault.Ompgpu_error.exit_code e
  | code -> code

let fail_error e =
  Fmt.epr "mompd: %s@." (Fault.Ompgpu_error.to_string e);
  Fault.Ompgpu_error.exit_code e

(* The hard stop behind a graceful drain, so a wedged drain cannot hang
   the process group.  Its timer thread starts here, on the main thread,
   before serving: a thread created inside a signal handler belongs to the
   domain that ran the handler and holds that domain's [Domain.join] until
   it ends.  The SIGTERM/SIGINT handler only calls the returned [arm].
   [after_s] seconds after arming, the process exits with the timeout
   code (24) and one stderr line — never 0, which reads as a clean drain. *)
let hard_stop ~after_s =
  let armed = Atomic.make false in
  let timer () =
    while not (Atomic.get armed) do
      Thread.delay 0.1
    done;
    Thread.delay after_s;
    Stdlib.exit
      (fail_error
         (Fault.Ompgpu_error.make
            (Fault.Ompgpu_error.Timeout { seconds = after_s })
            ~phase:Fault.Ompgpu_error.Serving
            "graceful drain did not finish: hard stop"))
  in
  ignore (Thread.create timer ());
  fun () -> Atomic.set armed true

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let serve socket domains capacity watchdog cache_dir cache_max_bytes
    cache_max_entries state_dir journal_max_bytes inject max_restarts
    restart_window drain_deadline tiered =
  let socket_path = require_socket socket in
  let capacity = Option.value capacity ~default:(4 * max 1 domains) in
  match Cli_common.parse_injects inject with
  | Error msgs ->
    List.iter (fun m -> Fmt.epr "mompd: --inject: %s@." m) msgs;
    2
  | Ok specs ->
    (* a client hanging up mid-response must be a Sys_error on the
       connection thread, not a process-killing SIGPIPE *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let cfg =
      {
        Service.Server.socket_path;
        domains;
        capacity;
        watchdog_s = watchdog;
        cache_dir;
        state_dir;
        injector = Fault.Injector.create specs;
        drain_deadline_s = drain_deadline;
        tiered;
        cache_max_entries;
        cache_max_bytes;
        journal_max_bytes;
      }
    in
    let sup_cfg =
      {
        Service.Supervisor.default_config with
        Service.Supervisor.server = cfg;
        max_restarts;
        window_s = restart_window;
        log = (fun m -> Fmt.epr "%s@." m);
      }
    in
    let sup = Service.Supervisor.create sup_cfg in
    let arm_hard_stop = hard_stop ~after_s:(drain_deadline +. 2.0) in
    let drain_and_exit _signal =
      Service.Supervisor.stop sup;
      arm_hard_stop ()
    in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle drain_and_exit);
    Sys.set_signal Sys.sigint (Sys.Signal_handle drain_and_exit);
    Fmt.epr "mompd: listening on %s (domains=%d capacity=%d%s%s%s%s)@."
      socket_path (max 1 domains) capacity
      (match watchdog with
      | Some s -> Printf.sprintf " watchdog=%gs" s
      | None -> "")
      (match cache_dir with
      | Some d -> Printf.sprintf " cache-dir=%s" d
      | None -> "")
      (match state_dir with
      | Some d -> Printf.sprintf " state-dir=%s" d
      | None -> "")
      (if tiered then " tiered" else "");
    (match Service.Supervisor.run sup with
    | Ok () ->
      Fmt.epr "mompd: shut down@.";
      0
    | Error e -> fail_error e)

let serve_cmd =
  let doc =
    "run the compile daemon (supervised) until a shutdown request or \
     SIGTERM arrives"
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const serve $ socket_arg $ Cli_common.jobs
      $ Arg.(
          value
          & opt (some int) None
          & info [ "capacity" ] ~docv:"N"
              ~doc:
                "Admission limit: shed (exit 40, retryable) any compile \
                 request arriving while $(docv) are already in flight.  \
                 Default 4 * domains; 0 sheds everything.")
      $ Cli_common.watchdog $ Cli_common.cache_dir
      $ Cli_common.cache_max_bytes $ Cli_common.cache_max_entries
      $ Arg.(
          value
          & opt (some string) None
          & info [ "state-dir" ] ~docv:"DIR"
              ~doc:
                "Journal every request to $(docv)/journal.ndjson and run \
                 the crash-recovery scan at startup (counters surface in \
                 $(b,mompd health)).  A tiered daemon also checkpoints \
                 its hotness profile here ($(docv)/hotness.json).")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "journal-max-bytes" ] ~docv:"BYTES"
              ~doc:
                "Rotate the journal mid-life once it exceeds $(docv) \
                 bytes (to journal.prev.ndjson), instead of only at the \
                 next restart.")
      $ Cli_common.inject
      $ Arg.(
          value
          & opt int Service.Supervisor.default_config.Service.Supervisor.max_restarts
          & info [ "max-restarts" ] ~docv:"N"
              ~doc:
                "Circuit breaker: more than $(docv) serve-loop crashes \
                 within the restart window stop the daemon with exit 41.")
      $ Arg.(
          value
          & opt float Service.Supervisor.default_config.Service.Supervisor.window_s
          & info [ "restart-window" ] ~docv:"SECONDS"
              ~doc:"Sliding window the circuit breaker counts crashes in.")
      $ Arg.(
          value
          & opt float Service.Server.default_config.Service.Server.drain_deadline_s
          & info [ "drain-deadline" ] ~docv:"SECONDS"
              ~doc:
                "On shutdown/SIGTERM, wait at most $(docv) for in-flight \
                 requests to finish before severing connections.")
      $ Arg.(
          value & flag
          & info [ "tiered" ]
              ~doc:
                "Tiered compilation: answer cold full-pipeline compiles \
                 from the $(b,fast) tier immediately and promote hot cache \
                 entries to the full pipeline in the background (see \
                 docs/SCHEDULER.md).  Off by default: until the upgrade \
                 lands, a fast-tier answer is not byte-identical to a \
                 one-shot $(b,mompc) compile."))

(* ------------------------------------------------------------------ *)
(* route: the sharded fleet front-end                                  *)
(* ------------------------------------------------------------------ *)

let default_router_socket =
  Service.Router.default_config.Service.Router.socket_path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* One daemon shard as a child process: [mompd serve] on its own socket
   and state dir, stdout/stderr appended to a per-shard log.  [alive] and
   [stop] reap with waitpid; the router's monitor thread is the only
   [alive] caller, so the pid slot needs no locking. *)
let subprocess_backend ~name ~socket_path ~log_file args =
  let pid = ref None in
  let start () =
    let logfd =
      Unix.openfile log_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
    in
    let p =
      Fun.protect
        ~finally:(fun () -> Unix.close logfd)
        (fun () -> Unix.create_process Sys.executable_name args Unix.stdin logfd logfd)
    in
    pid := Some p
  in
  let alive () =
    match !pid with
    | None -> false
    | Some p -> (
      match Unix.waitpid [ Unix.WNOHANG ] p with
      | 0, _ -> true
      | _ ->
        pid := None;
        false
      | exception Unix.Unix_error _ ->
        pid := None;
        false)
  in
  let stop () =
    match !pid with
    | None -> ()
    | Some p ->
      (try Unix.kill p Sys.sigterm with Unix.Unix_error _ -> ());
      let deadline = Observe.Clock.now_s () +. 8.0 in
      let rec reap () =
        match Unix.waitpid [ Unix.WNOHANG ] p with
        | 0, _ ->
          if Observe.Clock.now_s () < deadline then begin
            Thread.delay 0.05;
            reap ()
          end
          else begin
            (* the graceful drain wedged: do not leave an orphan behind *)
            (try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ());
            try ignore (Unix.waitpid [] p) with Unix.Unix_error _ -> ()
          end
        | _ -> ()
        | exception Unix.Unix_error _ -> ()
      in
      reap ();
      pid := None
  in
  { Service.Router.name; socket_path; start; stop; alive; pid = (fun () -> !pid) }

let route socket shards domains capacity cache_dir cache_max_bytes
    cache_max_entries fleet_dir inject queue_deadline probe_interval
    max_respawns eject_cooldown tiered =
  let socket_path =
    match socket with Some s -> s | None -> default_router_socket
  in
  let shards = max 1 shards in
  let capacity = Option.value capacity ~default:(4 * max 1 domains * shards) in
  match Cli_common.parse_injects inject with
  | Error msgs ->
    List.iter (fun m -> Fmt.epr "mompd: --inject: %s@." m) msgs;
    2
  | Ok specs ->
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    mkdir_p fleet_dir;
    Option.iter mkdir_p cache_dir;
    let backends =
      List.init shards (fun i ->
          let name = Printf.sprintf "shard-%d" i in
          let state_dir = Filename.concat fleet_dir (name ^ ".state") in
          mkdir_p state_dir;
          let shard_socket = Filename.concat fleet_dir (name ^ ".sock") in
          let args =
            [
              Sys.executable_name;
              "serve";
              "--socket";
              shard_socket;
              "-j";
              string_of_int (max 1 domains);
              (* each shard takes the whole fleet capacity: the router's
                 per-tenant fair queue is the real admission gate, and a
                 failover must not be shed by a tight per-shard cap *)
              "--capacity";
              string_of_int capacity;
              "--state-dir";
              state_dir;
            ]
            @ (match cache_dir with
              | Some d -> [ "--cache-dir"; d ]  (* the shared disk tier *)
              | None -> [])
            (* storage governance is per shard: every shard enforces the
               same caps over its own in-memory cache and the shared
               disk tier *)
            @ (match cache_max_bytes with
              | Some n -> [ "--cache-max-bytes"; string_of_int n ]
              | None -> [])
            @ (match cache_max_entries with
              | Some n -> [ "--cache-max-entries"; string_of_int n ]
              | None -> [])
            (* shards are full Servers: tiering is inherited unchanged *)
            @ (if tiered then [ "--tiered" ] else [])
            @ List.concat_map
                (fun s ->
                  [ "--inject"; Fault.Injector.spec_to_string s ])
                (List.filter
                   (fun s ->
                     (* router-level sites stay at the router *)
                     match s.Fault.Injector.site with
                     | Fault.Injector.Shard_down | Fault.Injector.Probe_timeout
                     | Fault.Injector.Ring_skew ->
                       false
                     | _ -> true)
                   specs)
          in
          subprocess_backend ~name ~socket_path:shard_socket
            ~log_file:(Filename.concat fleet_dir (name ^ ".log"))
            (Array.of_list args))
    in
    let cfg =
      {
        Service.Router.socket_path;
        capacity;
        queue_deadline_s = queue_deadline;
        probe_interval_s = probe_interval;
        max_respawns;
        eject_cooldown_s = eject_cooldown;
        injector = Fault.Injector.create specs;
        log = (fun m -> Fmt.epr "mompd: %s@." m);
      }
    in
    let router = Service.Router.create cfg backends in
    let arm_hard_stop = hard_stop ~after_s:10.0 in
    let drain_and_exit _signal =
      Service.Router.stop router;
      arm_hard_stop ()
    in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle drain_and_exit);
    Sys.set_signal Sys.sigint (Sys.Signal_handle drain_and_exit);
    Fmt.epr "mompd: routing on %s across %d shard(s) (fleet-dir=%s capacity=%d%s)@."
      socket_path shards fleet_dir capacity
      (match cache_dir with
      | Some d -> Printf.sprintf " cache-dir=%s" d
      | None -> "");
    Service.Router.serve_forever router;
    Fmt.epr "mompd: fleet shut down@.";
    0

let route_cmd =
  let doc =
    "run the fleet router: N supervised daemon shards behind one socket, \
     requests sharded by cache key over a consistent-hash ring with \
     health-probed failover (see docs/FLEET.md)"
  in
  Cmd.v (Cmd.info "route" ~doc)
    Term.(
      const route
      $ Cli_common.socket ~default:default_router_socket ()
      $ Arg.(
          value
          & opt int 2
          & info [ "shards" ] ~docv:"N"
              ~doc:"Number of daemon shards to spawn and supervise.")
      $ Cli_common.jobs
      $ Arg.(
          value
          & opt (some int) None
          & info [ "capacity" ] ~docv:"N"
              ~doc:
                "Fleet-wide admission limit enforced by the per-tenant fair \
                 queue.  Default 4 * domains * shards.")
      $ Cli_common.cache_dir
      $ Cli_common.cache_max_bytes $ Cli_common.cache_max_entries
      $ Arg.(
          value
          & opt string "./mompd-fleet"
          & info [ "fleet-dir" ] ~docv:"DIR"
              ~doc:
                "Home for per-shard sockets, state dirs and logs \
                 ($(docv)/shard-K.sock, $(docv)/shard-K.state, \
                 $(docv)/shard-K.log).")
      $ Cli_common.inject
      $ Arg.(
          value
          & opt float
              Service.Router.default_config.Service.Router.queue_deadline_s
          & info [ "queue-deadline" ] ~docv:"SECONDS"
              ~doc:
                "Longest a request waits for fair-queue capacity before \
                 being shed (exit 40, retryable).")
      $ Arg.(
          value
          & opt float
              Service.Router.default_config.Service.Router.probe_interval_s
          & info [ "probe-interval" ] ~docv:"SECONDS"
              ~doc:"Health-probe period per shard.")
      $ Arg.(
          value
          & opt int Service.Router.default_config.Service.Router.max_respawns
          & info [ "max-respawns" ] ~docv:"N"
              ~doc:
                "Respawns tolerated per window before a crash-looping shard \
                 is ejected from the ring.")
      $ Arg.(
          value
          & opt float
              Service.Router.default_config.Service.Router.eject_cooldown_s
          & info [ "eject-cooldown" ] ~docv:"SECONDS"
              ~doc:"How long an ejected shard sits out before rejoining.")
      $ Arg.(
          value & flag
          & info [ "tiered" ]
              ~doc:
                "Spawn every shard with $(b,--tiered): shards are full \
                 daemons, so tiered compilation is inherited unchanged \
                 (see docs/SCHEDULER.md)."))

(* ------------------------------------------------------------------ *)
(* stats / health / shutdown                                           *)
(* ------------------------------------------------------------------ *)

let stats socket =
  with_client (require_socket socket) (fun c ->
      match Service.Client.stats c () with
      | Ok j ->
        print_string (Observe.Json.to_string j);
        print_newline ();
        0
      | Error e -> fail_error e)

let stats_cmd =
  let doc = "print the daemon's live counters (schema 2) as JSON" in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const stats $ socket_arg)

let health socket =
  with_client (require_socket socket) (fun c ->
      match Service.Client.health c () with
      | Ok j ->
        print_string (Observe.Json.to_string j);
        print_newline ();
        0
      | Error e -> fail_error e)

let health_cmd =
  let doc =
    "print the daemon's health/readiness document (schema 2) as JSON: \
     status, uptime, in-flight count, breaker state, restart and \
     journal-replay counters"
  in
  Cmd.v (Cmd.info "health" ~doc) Term.(const health $ socket_arg)

let fleet socket =
  let socket_path =
    match socket with Some s -> s | None -> default_router_socket
  in
  with_client socket_path (fun c ->
      match Service.Client.fleet c () with
      | Ok j ->
        print_string (Observe.Json.to_string j);
        print_newline ();
        0
      | Error e -> fail_error e)

let fleet_cmd =
  let doc =
    "print the router's fleet document (schema 2) as JSON: ring layout, \
     router counters, and per-shard state/probe/respawn counters with \
     each reachable shard's live stats"
  in
  Cmd.v (Cmd.info "fleet" ~doc)
    Term.(const fleet $ Cli_common.socket ~default:default_router_socket ())

let shutdown socket =
  with_client (require_socket socket) (fun c ->
      match Service.Client.shutdown c () with
      | Ok () -> 0
      | Error e -> fail_error e)

let shutdown_cmd =
  let doc = "ask the daemon to drain and exit" in
  Cmd.v (Cmd.info "shutdown" ~doc) Term.(const shutdown $ socket_arg)

(* ------------------------------------------------------------------ *)
(* request: raw protocol access for scripts and tests                  *)
(* ------------------------------------------------------------------ *)

let request socket =
  with_client (require_socket socket) (fun c ->
      let code = ref 0 in
      (try
         while true do
           let line = input_line stdin in
           if String.trim line <> "" then
             match Observe.Json.of_string line with
             | Error msg ->
               Fmt.epr "mompd: request: unparseable JSON line: %s@." msg;
               code := max !code 2
             | Ok j -> (
               match Service.Client.roundtrip_json c j with
               | Ok reply ->
                 print_string (Observe.Json.to_string ~minify:true reply);
                 print_newline ()
               | Error e -> code := max !code (fail_error e))
         done
       with End_of_file -> ());
      !code)

let request_cmd =
  let doc =
    "send newline-delimited JSON protocol requests from stdin, print one \
     response line each (see docs/API.md for the v3 request shapes)"
  in
  Cmd.v (Cmd.info "request" ~doc) Term.(const request $ socket_arg)

let cmd =
  let doc = "persistent MiniOMP compile service" in
  Cmd.group (Cmd.info "mompd" ~doc)
    [
      serve_cmd;
      route_cmd;
      stats_cmd;
      health_cmd;
      fleet_cmd;
      shutdown_cmd;
      request_cmd;
    ]

let () = exit (Cmd.eval' cmd)
