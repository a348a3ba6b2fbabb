(* Crash-safety and resilience of the compile service (ISSUE 5).

   What this suite pins: the disk cache's orphaned-temp sweep, the request
   journal's crash-recovery scan, the protocol codec under hostile frames
   (never raises, always answers with the taxonomy), the client's
   deadline/retry/reconnect/fallback loop, the supervisor's
   restart-with-backoff and crash-loop circuit breaker (exit 41), and the
   graceful SIGTERM drain of a real mompd process — all without ever
   changing observable compile bytes. *)

module J = Observe.Json
module E = Fault.Ompgpu_error
module A = Ompgpu_api

(* Severed sockets are routine here; a write to one must be a Sys_error,
   not a process-killing SIGPIPE. *)
let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let tiny = Proxyapps.App.Tiny
let app_source name = (Proxyapps.Apps.find_exn name).Proxyapps.App.omp_source tiny

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "momprs-%d-%d.sock" (Unix.getpid ()) !n)

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

let write_file path contents =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc contents)

let read_file path = In_channel.with_open_text path In_channel.input_all

let contains s frag =
  let ls = String.length s and lf = String.length frag in
  let rec go i = i + lf <= ls && (String.sub s i lf = frag || go (i + 1)) in
  go 0

let ok_exn = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected service error: %s" (E.to_string e)

let server_config ?(domains = 2) ?(capacity = 8) ?watchdog_s ?cache_dir
    ?state_dir ?(injector = Fault.Injector.none) ?(drain_deadline_s = 5.0)
    socket_path =
  {
    Service.Server.socket_path;
    domains;
    capacity;
    watchdog_s;
    cache_dir;
    state_dir;
    injector;
    drain_deadline_s;
    tiered = false;
    cache_max_entries = None;
    cache_max_bytes = None;
    journal_max_bytes = None;
  }

let check_same_compiled what (expected : A.compiled) (got : A.compiled) =
  Alcotest.(check int) (what ^ ": exit code") expected.A.exit_code got.A.exit_code;
  Alcotest.(check string) (what ^ ": stdout bytes") expected.A.output got.A.output;
  Alcotest.(check string)
    (what ^ ": stderr bytes")
    expected.A.diagnostics got.A.diagnostics

(* ------------------------------------------------------------------ *)
(* Disk cache: orphaned temp sweep                                     *)
(* ------------------------------------------------------------------ *)

let test_disk_cache_temp_sweep () =
  let dir = temp_dir "sweep" in
  (* a crash between temp-write and rename orphans files like these *)
  let stale = Filename.concat dir "sched-cache-stale1.tmp" in
  let fresh = Filename.concat dir "sched-cache-fresh2.tmp" in
  let foreign = Filename.concat dir "unrelated.tmp" in
  write_file stale "half-written entry";
  write_file fresh "a concurrent writer's live temp";
  write_file foreign "not ours";
  Unix.utimes stale 1000. 1000.;
  let cache = Sched.Disk_cache.create ~dir () in
  Alcotest.(check int) "one orphan swept" 1 (Sched.Disk_cache.swept cache);
  Alcotest.(check bool) "stale temp gone" false (Sys.file_exists stale);
  Alcotest.(check bool)
    "stale temp quarantined, not deleted" true
    (Sys.file_exists
       (Filename.concat (Filename.concat dir "quarantine")
          "sched-cache-stale1.tmp"));
  Alcotest.(check bool) "young temp untouched" true (Sys.file_exists fresh);
  Alcotest.(check bool) "foreign file untouched" true (Sys.file_exists foreign);
  (* a re-sweep with an aggressive age catches the fresh one too *)
  Unix.utimes fresh 1000. 1000.;
  Alcotest.(check int) "re-sweep" 1
    (Sched.Disk_cache.sweep_temps ~max_age_s:0.5 cache);
  Alcotest.(check int) "counter accumulates" 2 (Sched.Disk_cache.swept cache);
  (* the cache still stores and finds through all of this *)
  Sched.Disk_cache.store cache ~key:"k" ~data:"v";
  Alcotest.(check (option string))
    "cache functional after sweeps" (Some "v")
    (Sched.Disk_cache.find cache ~key:"k")

(* ------------------------------------------------------------------ *)
(* Journal: recovery scan                                              *)
(* ------------------------------------------------------------------ *)

let test_journal_recovery_scan () =
  let dir = temp_dir "journal" in
  let path = Filename.concat dir "journal.ndjson" in
  write_file path
    (String.concat "\n"
       [
         {|{"schema":2,"jv":1,"ev":"begin","seq":0,"id":"a","op":"compile","key":"k0"}|};
         {|{"schema":2,"jv":1,"ev":"settle","seq":0,"code":0}|};
         {|{"schema":2,"jv":1,"ev":"begin","seq":1,"id":"b","op":"run","key":"k1"}|};
         {|{"schema":2,"jv":1,"ev":"settle","seq":1,"code":14}|};
         {|{"schema":2,"jv":1,"ev":"begin","seq":2,"id":"c","op":"compile","key":"k2"}|};
         {|{"schema":2,"jv":99,"ev":"begin","seq":3}|};
         {|{"torn final wri|};
       ]);
  let j, r = Service.Journal.open_ ~dir () in
  Alcotest.(check int) "replayed ok" 1 r.Service.Journal.replayed_ok;
  Alcotest.(check int) "replayed failed" 1 r.Service.Journal.replayed_failed;
  Alcotest.(check int) "interrupted (begun, never settled)" 1
    r.Service.Journal.interrupted;
  Alcotest.(check int) "torn lines (incl. unknown jv)" 2 r.Service.Journal.torn;
  (* the previous life was rotated aside, the fresh journal embeds the
     recovery counters *)
  Alcotest.(check bool)
    "old journal rotated" true
    (Sys.file_exists (Filename.concat dir "journal.prev.ndjson"));
  let fresh = read_file path in
  Alcotest.(check bool) "fresh journal records recovery" true
    (contains fresh {|"ev":"recovered"|});
  (* begin/settle round-trips through a second boot *)
  let seq = Service.Journal.begin_request j ~id:"x" ~op:"compile" ~key:"kx" in
  Service.Journal.settle_request j ~seq ~exit_code:0;
  Service.Journal.close j;
  let _, r2 = Service.Journal.open_ ~dir () in
  Alcotest.(check int) "second boot replays the settle" 1
    r2.Service.Journal.replayed_ok;
  Alcotest.(check int) "second boot sees nothing interrupted" 0
    r2.Service.Journal.interrupted

(* ------------------------------------------------------------------ *)
(* Protocol fuzz: hostile frames never raise                           *)
(* ------------------------------------------------------------------ *)

(* The endpoint's framing: one raw frame, then its decoding. *)
let read_message_of_bytes bytes =
  let path = Filename.temp_file "frame" ".bin" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes);
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      In_channel.with_open_bin path (fun ic ->
          match Service.Protocol.read_frame ic with
          | (`Eof | `Overflow _) as r -> r
          | `Line line -> `Msg (Service.Protocol.decode_line line)))

let test_protocol_hostile_frames () =
  (match read_message_of_bytes "" with
  | `Eof -> ()
  | _ -> Alcotest.fail "empty stream should be Eof");
  (match read_message_of_bytes "{\"v\":1,\"id\":\"x\",\"op\":\"stats\"}\n" with
  | `Msg (Ok _) -> ()
  | _ -> Alcotest.fail "well-formed frame should decode");
  (match read_message_of_bytes "\x00\xff garbage \x17 bytes\n" with
  | `Msg (Error e) ->
    Alcotest.(check string) "garbage kind" "bad-request" (E.kind_name e.E.kind);
    Alcotest.(check int) "garbage exit code" 42 (E.exit_code e)
  | _ -> Alcotest.fail "garbage should be a structured bad-request");
  (match read_message_of_bytes "{\"v\":1,\"id\":\"tr" with
  | `Msg (Error e) ->
    Alcotest.(check string) "mid-frame EOF kind" "bad-request"
      (E.kind_name e.E.kind)
  | _ -> Alcotest.fail "EOF mid-frame should be a structured bad-request");
  let oversized =
    String.make (Service.Protocol.max_frame_bytes + 1024) 'a' ^ "\n"
  in
  match read_message_of_bytes oversized with
  | `Overflow e ->
    Alcotest.(check string) "oversized kind" "bad-request" (E.kind_name e.E.kind)
  | _ -> Alcotest.fail "oversized frame should be Overflow"

(* A hostile peer against a live daemon: garbage gets a structured answer
   on the same connection; a torn frame (EOF mid-line) gets answered
   best-effort; and the daemon serves clean clients afterwards. *)
let test_daemon_survives_hostile_peer () =
  let socket_path = fresh_socket () in
  let server = Service.Server.create (server_config socket_path) in
  let thread = Thread.create Service.Server.serve_forever server in
  Fun.protect
    ~finally:(fun () ->
      Service.Server.stop server;
      Thread.join thread)
    (fun () ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket_path);
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      Out_channel.output_string oc "\x01\x02 not json at all\n";
      Out_channel.flush oc;
      let reply1 = Option.value (In_channel.input_line ic) ~default:"" in
      Alcotest.(check bool) "garbage answered structurally" true
        (contains reply1 {|"kind":"bad-request"|});
      (* a torn frame: half a request, then EOF on the write side *)
      Out_channel.output_string oc "{\"v\":1,\"id\":\"torn";
      Out_channel.flush oc;
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let reply2 = Option.value (In_channel.input_line ic) ~default:"" in
      Alcotest.(check bool) "torn frame answered structurally" true
        (contains reply2 {|"kind":"bad-request"|});
      Alcotest.(check (option string)) "then the connection closes cleanly"
        None
        (In_channel.input_line ic);
      Unix.close fd;
      (* the daemon is unharmed *)
      Service.Client.with_connection ~socket_path @@ fun c ->
      let r =
        ok_exn
          (Service.Client.compile c ~file:"x.momp" ~config:A.Config.default
             (app_source "xsbench"))
      in
      Alcotest.(check int) "daemon still compiles" 0 r.A.exit_code;
      let stats = ok_exn (Service.Client.stats c ()) in
      Alcotest.(check (option int))
        "bad requests counted" (Some 2)
        (Option.bind (J.member "requests" stats) (fun r ->
             Option.bind (J.member "bad" r) J.to_int)))

(* ------------------------------------------------------------------ *)
(* Client resilience                                                   *)
(* ------------------------------------------------------------------ *)

let fast_policy =
  {
    Service.Client.attempts = 4;
    backoff_base_s = 0.005;
    backoff_cap_s = 0.02;
    deadline_s = Some 5.;
  }

(* A server that accepts and reads but never answers: the client's
   per-request deadline must turn it into a bounded, transient failure. *)
let test_client_deadline () =
  let socket_path = fresh_socket () in
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX socket_path);
  Unix.listen listen_fd 8;
  let acceptor =
    Thread.create
      (fun () ->
        let rec loop () =
          match Unix.accept listen_fd with
          | client, _ ->
            ignore
              (Thread.create
                 (fun () ->
                   let buf = Bytes.create 4096 in
                   let rec swallow () =
                     match Unix.read client buf 0 4096 with
                     | 0 -> Unix.close client
                     | _ -> swallow ()
                     | exception Unix.Unix_error _ -> (
                       try Unix.close client with Unix.Unix_error _ -> ())
                   in
                   swallow ())
                 ());
            loop ()
          | exception Unix.Unix_error _ -> ()
        in
        loop ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.shutdown listen_fd Unix.SHUTDOWN_ALL
       with Unix.Unix_error _ -> ());
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      Thread.join acceptor;
      try Sys.remove socket_path with Sys_error _ -> ())
    (fun () ->
      let session =
        Service.Client.session
          ~policy:
            { fast_policy with Service.Client.attempts = 2; deadline_s = Some 0.2 }
          ~socket_path ()
      in
      let started = Unix.gettimeofday () in
      let result =
        Service.Client.session_compile session ~file:"x.momp"
          ~config:A.Config.default "x"
      in
      let elapsed = Unix.gettimeofday () -. started in
      Alcotest.(check bool) "unresponsive daemon yields an error" true
        (Result.is_error result);
      Alcotest.(check int) "one retry burned" 1
        (Service.Client.session_retries session);
      Alcotest.(check bool)
        (Printf.sprintf "bounded by the deadline (took %.2fs)" elapsed)
        true (elapsed < 3.);
      Service.Client.session_close session)

(* conn-drop at rate 1.0: every request is dropped mid-flight; the client
   retries (reconnecting each time) until the budget is exhausted, then
   reports the transient error for the caller's fallback. *)
let test_client_retry_budget_exhaustion () =
  let socket_path = fresh_socket () in
  let injector = Fault.Injector.create
      [ { Fault.Injector.site = Fault.Injector.Conn_drop; rate = 1.0; seed = 1 } ]
  in
  let server = Service.Server.create (server_config ~injector socket_path) in
  let thread = Thread.create Service.Server.serve_forever server in
  Fun.protect
    ~finally:(fun () ->
      Service.Server.stop server;
      Thread.join thread)
    (fun () ->
      let session = Service.Client.session ~policy:fast_policy ~socket_path () in
      let result =
        Service.Client.session_compile session ~file:"x.momp"
          ~config:A.Config.default (app_source "xsbench")
      in
      Alcotest.(check bool) "budget exhaustion surfaces the error" true
        (Result.is_error result);
      Alcotest.(check int) "all retries spent" 3
        (Service.Client.session_retries session);
      Service.Client.session_close session)

(* conn-drop at rate 0.5 (deterministic seed): some requests drop, the
   client reconnects and retries, and every compile still settles with
   exactly the one-shot bytes. *)
let test_client_reconnect_byte_identical () =
  let socket_path = fresh_socket () in
  let injector = Fault.Injector.create
      [ { Fault.Injector.site = Fault.Injector.Conn_drop; rate = 0.5; seed = 11 } ]
  in
  let server = Service.Server.create (server_config ~injector socket_path) in
  let thread = Thread.create Service.Server.serve_forever server in
  Fun.protect
    ~finally:(fun () ->
      Service.Server.stop server;
      Thread.join thread)
    (fun () ->
      let config = A.Config.(default |> with_pipeline A.Pipeline.full) in
      let session = Service.Client.session ~policy:fast_policy ~socket_path () in
      List.iter
        (fun name ->
          let file = name ^ ".momp" in
          let source = app_source name in
          let oneshot = A.compile_buffered ~config ~file source in
          let served =
            ok_exn (Service.Client.session_compile session ~file ~config source)
          in
          check_same_compiled (name ^ " despite dropped connections") oneshot
            served)
        [ "xsbench"; "rsbench"; "su3bench"; "miniqmc"; "xsbench"; "rsbench" ];
      Alcotest.(check bool)
        (Printf.sprintf "the faults actually fired (%d retries)"
           (Service.Client.session_retries session))
        true
        (Service.Client.session_retries session >= 1);
      Alcotest.(check bool) "and reconnects happened" true
        (Service.Client.session_reconnects session >= 1);
      Service.Client.session_close session)

(* ------------------------------------------------------------------ *)
(* Supervisor: restart with backoff, breaker, recovery                 *)
(* ------------------------------------------------------------------ *)

let supervisor_config ?(max_restarts = 50) ?(window_s = 30.) server =
  {
    Service.Supervisor.server;
    max_restarts;
    window_s;
    backoff_base_s = 0.002;
    backoff_cap_s = 0.02;
    log = ignore;
  }

(* daemon-kill at rate 0.5: serve loops keep crashing under the client;
   the supervisor restarts them on the same bound socket and every
   compile still settles byte-identically. *)
let test_supervisor_restarts_transparently () =
  let socket_path = fresh_socket () in
  let state_dir = temp_dir "sup-state" in
  (* seed 6's deterministic coin sequence (TFFTFFFT...) crashes the serve
     loop on some accepts but never twice in a row, so the client's
     4-attempt budget always wins; a fresh session per compile forces a
     fresh accept (and coin) per compile *)
  let injector = Fault.Injector.create
      [ { Fault.Injector.site = Fault.Injector.Daemon_kill; rate = 0.5; seed = 6 } ]
  in
  let sup =
    Service.Supervisor.create
      (supervisor_config (server_config ~injector ~state_dir socket_path))
  in
  let outcome = ref None in
  let thread =
    Thread.create (fun () -> outcome := Some (Service.Supervisor.run sup)) ()
  in
  let config = A.Config.(default |> with_pipeline A.Pipeline.full) in
  List.iter
    (fun name ->
      let file = name ^ ".momp" in
      let source = app_source name in
      let oneshot = A.compile_buffered ~config ~file source in
      let session = Service.Client.session ~policy:fast_policy ~socket_path () in
      let served =
        ok_exn (Service.Client.session_compile session ~file ~config source)
      in
      Service.Client.session_close session;
      check_same_compiled (name ^ " across serve-loop crashes") oneshot served)
    [ "xsbench"; "rsbench"; "su3bench"; "miniqmc"; "xsbench"; "su3bench" ];
  let restarts = (Service.Supervisor.supervision sup).Service.Server.restarts in
  Alcotest.(check bool)
    (Printf.sprintf "serve loop crashed and was restarted (%d times)" restarts)
    true (restarts >= 1);
  Service.Supervisor.stop sup;
  Thread.join thread;
  (match !outcome with
  | Some (Ok ()) -> ()
  | Some (Error e) -> Alcotest.failf "supervisor errored: %s" (E.to_string e)
  | None -> Alcotest.fail "supervisor never finished");
  Alcotest.(check bool) "socket cleaned up" false (Sys.file_exists socket_path);
  (* the journal recorded the restarts *)
  let journal = read_file (Filename.concat state_dir "journal.ndjson") in
  Alcotest.(check bool) "restarts journaled" true
    (contains journal {|"ev":"restart"|})

let test_supervisor_breaker_opens () =
  let socket_path = fresh_socket () in
  let injector = Fault.Injector.create
      [ { Fault.Injector.site = Fault.Injector.Daemon_kill; rate = 1.0; seed = 5 } ]
  in
  let sup =
    Service.Supervisor.create
      (supervisor_config ~max_restarts:2
         (server_config ~injector socket_path))
  in
  let outcome = ref None in
  let thread =
    Thread.create (fun () -> outcome := Some (Service.Supervisor.run sup)) ()
  in
  (* every accept crashes the serve loop; a few connects trip the breaker *)
  let tries = ref 0 in
  while !outcome = None && !tries < 100 do
    incr tries;
    let session =
      Service.Client.session
        ~policy:{ fast_policy with Service.Client.attempts = 1 }
        ~socket_path ()
    in
    ignore
      (Service.Client.session_compile session ~file:"x.momp"
         ~config:A.Config.default "x");
    Service.Client.session_close session;
    Thread.delay 0.01
  done;
  Thread.join thread;
  (match !outcome with
  | Some (Error e) -> (
    Alcotest.(check string) "breaker error kind" "crash-loop"
      (E.kind_name e.E.kind);
    Alcotest.(check int) "breaker exit code" 41 (E.exit_code e);
    Alcotest.(check bool) "crash-loop is not transient" false (E.is_transient e);
    match e.E.kind with
    | E.Crash_loop { restarts; _ } ->
      Alcotest.(check bool) "counted past the threshold" true (restarts > 2)
    | _ -> ())
  | Some (Ok ()) -> Alcotest.fail "supervisor stopped cleanly instead of tripping"
  | None -> Alcotest.fail "breaker never opened");
  Alcotest.(check bool) "breaker state exposed" true
    (Service.Supervisor.supervision sup).Service.Server.breaker_open

(* ------------------------------------------------------------------ *)
(* Graceful drain of a real mompd under SIGTERM                        *)
(* ------------------------------------------------------------------ *)

let mompd_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/mompd.exe"

let () =
  if not (Sys.file_exists mompd_exe) then
    failwith ("test_resilience: mompd binary not found at " ^ mompd_exe)

let wait_for_socket socket_path =
  let rec go n =
    if n > 500 then Alcotest.fail "daemon socket never appeared";
    let probe () =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
          | () -> true
          | exception Unix.Unix_error _ -> false)
    in
    if not (Sys.file_exists socket_path && probe ()) then begin
      Thread.delay 0.02;
      go (n + 1)
    end
  in
  go 0

let waitpid_timeout pid ~seconds =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then None
      else begin
        Thread.delay 0.02;
        go ()
      end
    | _, status -> Some status
  in
  go ()

let test_sigterm_graceful_drain () =
  let socket_path = fresh_socket () in
  let state_dir = temp_dir "drain-state" in
  let err_log = Filename.temp_file "mompd" ".err" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let err_fd =
    Unix.openfile err_log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Unix.create_process mompd_exe
      [|
        mompd_exe;
        "serve";
        "--socket";
        socket_path;
        "--state-dir";
        state_dir;
        (* every response waits 150ms: guarantees the request is still in
           flight when SIGTERM lands *)
        "--inject";
        "slow-client:1.0";
        "--drain-deadline";
        "5";
      |]
      devnull Unix.stdout err_fd
  in
  Unix.close devnull;
  Unix.close err_fd;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (try Unix.waitpid [ Unix.WNOHANG ] pid with Unix.Unix_error _ -> (0, Unix.WEXITED 0));
      try Sys.remove err_log with Sys_error _ -> ())
    (fun () ->
      wait_for_socket socket_path;
      let config = A.Config.default in
      let source = app_source "xsbench" in
      let oneshot = A.compile_buffered ~config ~file:"x.momp" source in
      let result = ref None in
      let client_thread =
        Thread.create
          (fun () ->
            let c = Service.Client.connect ~deadline_s:10. ~socket_path () in
            result := Some (Service.Client.compile c ~file:"x.momp" ~config source);
            Service.Client.close c)
          ()
      in
      (* let the request reach the daemon, then ask it to die politely *)
      Thread.delay 0.05;
      let sigterm_at = Unix.gettimeofday () in
      Unix.kill pid Sys.sigterm;
      Thread.join client_thread;
      (match !result with
      | Some (Ok served) ->
        check_same_compiled "in-flight request finished during drain" oneshot
          served
      | Some (Error e) ->
        Alcotest.failf "in-flight request lost to the drain: %s (stderr: %s)"
          (E.to_string e) (read_file err_log)
      | None -> Alcotest.fail "client thread died");
      match waitpid_timeout pid ~seconds:8. with
      | Some (Unix.WEXITED 0) ->
        let took = Unix.gettimeofday () -. sigterm_at in
        Alcotest.(check bool)
          (Printf.sprintf "exited within the drain deadline (took %.2fs)" took)
          true (took < 7.);
        Alcotest.(check bool) "socket file removed" false
          (Sys.file_exists socket_path);
        let journal = read_file (Filename.concat state_dir "journal.ndjson") in
        Alcotest.(check bool) "request settled in the journal" true
          (contains journal {|"ev":"settle"|});
        Alcotest.(check bool) "drain journaled" true
          (contains journal {|"ev":"drain"|})
      | Some status ->
        let s =
          match status with
          | Unix.WEXITED n -> Printf.sprintf "exit %d" n
          | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
          | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n
        in
        Alcotest.failf "daemon did not drain cleanly: %s (stderr: %s)" s
          (read_file err_log)
      | None -> Alcotest.failf "daemon hung past the drain deadline")

(* ------------------------------------------------------------------ *)
(* Graceful degradation: no daemon, byte-identical fallback            *)
(* ------------------------------------------------------------------ *)

let mompc_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/mompc.exe"

let run_command cmd =
  let out_file = Filename.temp_file "rsl" ".out" in
  let err_file = Filename.temp_file "rsl" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s > %s 2> %s" cmd (Filename.quote out_file)
         (Filename.quote err_file))
  in
  let out = read_file out_file and err = read_file err_file in
  Sys.remove out_file;
  Sys.remove err_file;
  (code, out, err)

let test_daemonless_fallback_byte_identical () =
  let path = Filename.temp_file "rsl" ".momp.c" in
  write_file path (app_source "rsbench");
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let flags = Printf.sprintf "-O --run %s" (Filename.quote path) in
      let code1, out1, err1 =
        run_command (Printf.sprintf "%s %s" mompc_exe flags)
      in
      (* no socket file at all: immediate in-process fallback *)
      let missing = fresh_socket () in
      let code2, out2, err2 =
        run_command
          (Printf.sprintf "%s %s --daemon %s" mompc_exe flags
             (Filename.quote missing))
      in
      Alcotest.(check int) "exit code (missing socket)" code1 code2;
      Alcotest.(check string) "stdout bytes (missing socket)" out1 out2;
      Alcotest.(check string) "stderr bytes (missing socket)" err1 err2;
      (* a stale socket file nobody listens on: bounded retries, then the
         same fallback *)
      let stale = fresh_socket () in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX stale);
      Unix.close fd;
      Fun.protect
        ~finally:(fun () -> try Sys.remove stale with Sys_error _ -> ())
        (fun () ->
          let code3, out3, err3 =
            run_command
              (Printf.sprintf "%s %s --daemon %s" mompc_exe flags
                 (Filename.quote stale))
          in
          Alcotest.(check int) "exit code (stale socket)" code1 code3;
          Alcotest.(check string) "stdout bytes (stale socket)" out1 out3;
          Alcotest.(check string) "stderr bytes (stale socket)" err1 err3))

let suite =
  [
    Alcotest.test_case "disk-cache/orphan-temp-sweep" `Quick
      test_disk_cache_temp_sweep;
    Alcotest.test_case "journal/recovery-scan" `Quick test_journal_recovery_scan;
    Alcotest.test_case "protocol/hostile-frames" `Quick
      test_protocol_hostile_frames;
    Alcotest.test_case "daemon/survives-hostile-peer" `Quick
      test_daemon_survives_hostile_peer;
    Alcotest.test_case "client/deadline-bounds-unresponsive-daemon" `Quick
      test_client_deadline;
    Alcotest.test_case "client/retry-budget-exhaustion" `Quick
      test_client_retry_budget_exhaustion;
    Alcotest.test_case "client/reconnect-byte-identical" `Quick
      test_client_reconnect_byte_identical;
    Alcotest.test_case "supervisor/restarts-transparently" `Quick
      test_supervisor_restarts_transparently;
    Alcotest.test_case "supervisor/breaker-opens" `Quick
      test_supervisor_breaker_opens;
    Alcotest.test_case "daemon/sigterm-graceful-drain" `Quick
      test_sigterm_graceful_drain;
    Alcotest.test_case "client/daemonless-fallback-byte-identical" `Quick
      test_daemonless_fallback_byte_identical;
  ]
