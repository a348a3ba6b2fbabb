(* The sharded compile fleet (docs/FLEET.md).

   What this suite pins: the consistent-hash ring's determinism, coverage
   and minimal-remap property; failover byte-identity when the injector
   declares the primary shard down (and the in-process fallback when every
   shard is); per-tenant fair-queue admission (a greedy tenant is shed at
   the deadline, a second tenant is not starved); the monitor's ejection
   of a crash-looping shard and its cooldown re-admission; and the shape
   of the router's health/stats/fleet documents, including the lone
   daemon's structured rejection of the fleet op. *)

module J = Observe.Json
module E = Fault.Ompgpu_error
module A = Ompgpu_api
module Router = Service.Router
module Ring = Service.Ring

(* Shards are stopped under live relays here; a write to a severed socket
   must surface as an error, not a process-killing SIGPIPE. *)
let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let path =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "mompfl-%d-%d" (Unix.getpid ()) !n)
    in
    Unix.mkdir path 0o755;
    path

let config = A.Config.(default |> with_pipeline A.Pipeline.full |> with_sim)

let source =
  (Proxyapps.Apps.find_exn "xsbench").Proxyapps.App.omp_source Proxyapps.App.Tiny

let ok_exn = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected service error: %s" (E.to_string e)

let check_same_compiled what (expected : A.compiled) (got : A.compiled) =
  Alcotest.(check int) (what ^ ": exit code") expected.A.exit_code got.A.exit_code;
  Alcotest.(check string) (what ^ ": stdout bytes") expected.A.output got.A.output;
  Alcotest.(check string)
    (what ^ ": stderr bytes")
    expected.A.diagnostics got.A.diagnostics

(* A fleet of in-process supervised shards behind a router, torn down even
   when the body raises.  [injector] arms router-level sites only. *)
let with_fleet ?(shards = 2) ?(injector = Fault.Injector.none)
    ?(router_cfg = fun (c : Router.config) -> c) f =
  let dir = fresh_dir () in
  let backends =
    List.init shards (fun i ->
        let name = Printf.sprintf "shard-%d" i in
        Router.inproc_backend
          {
            Service.Supervisor.default_config with
            Service.Supervisor.server =
              {
                Service.Server.default_config with
                Service.Server.socket_path = Filename.concat dir (name ^ ".sock");
                domains = 2;
                capacity = 8;
                cache_dir = Some (Filename.concat dir "cache");
              };
          }
          ~name)
  in
  let router_socket = Filename.concat dir "router.sock" in
  let cfg =
    router_cfg
      {
        Router.default_config with
        Router.socket_path = router_socket;
        capacity = 8;
        probe_interval_s = 0.02;
        injector;
      }
  in
  let router = Router.create cfg backends in
  let thread = Thread.create Router.serve_forever router in
  let finish () =
    Router.stop router;
    Thread.join thread
  in
  match f ~router ~router_socket ~backends with
  | result ->
    finish ();
    result
  | exception e ->
    (try finish () with _ -> ());
    raise e

(* Poll [probe] until it holds or the deadline passes; the fleet's state
   machine advances on prober/monitor threads, not on ours. *)
let eventually ?(deadline_s = 10.0) what probe =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if probe () then ()
    else if Unix.gettimeofday () -. t0 > deadline_s then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

let shard_entries doc =
  match J.member "shards" doc with Some (J.List l) -> l | _ -> []

let entry_str name entry =
  Option.bind (J.member name entry) J.to_str

let entry_int name entry =
  Option.bind (J.member name entry) J.to_int

(* ------------------------------------------------------------------ *)
(* Ring: determinism, coverage, minimal remap                          *)
(* ------------------------------------------------------------------ *)

let test_ring_determinism () =
  let names = [ "a"; "b"; "c" ] in
  let r1 = Ring.create names in
  (* order-insensitive: membership, not list order, defines the ring *)
  let r2 = Ring.create (List.rev names) in
  Alcotest.(check (array string))
    "shard array is sorted and order-insensitive" [| "a"; "b"; "c" |]
    (Ring.shards r1);
  Alcotest.(check (array string)) "same membership, same array" (Ring.shards r1)
    (Ring.shards r2);
  for i = 0 to 199 do
    let key = Printf.sprintf "key-%d" i in
    let o1 = Ring.order r1 key in
    Alcotest.(check (list int))
      "independently built rings agree on every key" o1 (Ring.order r2 key);
    Alcotest.(check (list int))
      "preference order covers every shard exactly once"
      (List.sort compare o1) [ 0; 1; 2 ]
  done;
  Alcotest.check_raises "empty ring rejected"
    (Invalid_argument "Ring.create: no shards") (fun () ->
      ignore (Ring.create []));
  Alcotest.check_raises "duplicate shard rejected"
    (Invalid_argument "Ring.create: duplicate shard names") (fun () ->
      ignore (Ring.create [ "a"; "a" ]))

let test_ring_minimal_remap () =
  (* Removing one shard of four must remap only the keys it owned: every
     other key keeps its primary, because the surviving shards' ring
     points are identical in both rings. *)
  let big = Ring.create [ "a"; "b"; "c"; "d" ] in
  let small = Ring.create [ "a"; "b"; "c" ] in
  let big_names = Ring.shards big and small_names = Ring.shards small in
  let moved = ref 0 in
  let n = 500 in
  for i = 0 to n - 1 do
    let key = Printf.sprintf "cache-key-%d" i in
    let big_primary = big_names.(List.hd (Ring.order big key)) in
    let small_primary = small_names.(List.hd (Ring.order small key)) in
    if String.equal big_primary "d" then incr moved
    else
      Alcotest.(check string)
        (Printf.sprintf "%s keeps its primary when d leaves" key)
        big_primary small_primary
  done;
  (* ~1/4 of the key space belonged to the departed shard; vnodes keep the
     split even enough that the bound below is loose *)
  Alcotest.(check bool)
    (Printf.sprintf "departed shard owned a sane fraction (%d/%d)" !moved n)
    true
    (!moved > n / 10 && !moved < n / 2)

(* ------------------------------------------------------------------ *)
(* Failover byte-identity                                              *)
(* ------------------------------------------------------------------ *)

let test_failover_byte_identity () =
  (* shard-down at rate 1.0 drops the primary candidate for every
     request: everything lands on a non-primary shard, and the bytes must
     not care *)
  let injector =
    Fault.Injector.create
      [ { Fault.Injector.site = Fault.Injector.Shard_down; rate = 1.0; seed = 7 } ]
  in
  with_fleet ~shards:2 ~injector (fun ~router:_ ~router_socket ~backends:_ ->
      Service.Client.with_connection ~socket_path:router_socket (fun c ->
          for i = 0 to 5 do
            let file = Printf.sprintf "failover-%d.c" i in
            let expected = A.compile_buffered ~config ~file source in
            let got = ok_exn (Service.Client.compile c ~file ~config source) in
            check_same_compiled (Printf.sprintf "misrouted request %d" i)
              expected got
          done))

let test_all_down_falls_back_in_process () =
  (* one shard, always dropped: the ladder is empty and the router must
     settle the compile itself, byte-identically *)
  let injector =
    Fault.Injector.create
      [ { Fault.Injector.site = Fault.Injector.Shard_down; rate = 1.0; seed = 7 } ]
  in
  with_fleet ~shards:1 ~injector (fun ~router ~router_socket ~backends:_ ->
      Service.Client.with_connection ~socket_path:router_socket (fun c ->
          let file = "fallback.c" in
          let expected = A.compile_buffered ~config ~file source in
          let got = ok_exn (Service.Client.compile c ~file ~config source) in
          check_same_compiled "in-process fallback" expected got);
      let doc = Router.fleet_json router in
      let fallbacks =
        Option.value ~default:0
          (Option.bind (J.member "router" doc) (fun r ->
               Option.bind (J.member "fallbacks" r) J.to_int))
      in
      Alcotest.(check bool)
        "router counted the in-process fallback" true (fallbacks >= 1))

let test_stopped_shard_failover () =
  (* no injector: stop a real shard and let the strike path discover it *)
  with_fleet ~shards:2 (fun ~router:_ ~router_socket ~backends ->
      Service.Client.with_connection ~socket_path:router_socket (fun c ->
          (* route at least one request per shard so both sockets are known
             good first *)
          for i = 0 to 3 do
            let file = Printf.sprintf "pre-%d.c" i in
            ignore (ok_exn (Service.Client.compile c ~file ~config source))
          done);
      (List.hd backends).Router.stop ();
      Service.Client.with_connection ~socket_path:router_socket (fun c ->
          for i = 0 to 5 do
            let file = Printf.sprintf "post-%d.c" i in
            let expected = A.compile_buffered ~config ~file source in
            let got = ok_exn (Service.Client.compile c ~file ~config source) in
            check_same_compiled
              (Printf.sprintf "request %d with shard-0 stopped" i)
              expected got
          done))

(* ------------------------------------------------------------------ *)
(* Admission: per-tenant fair queue                                    *)
(* ------------------------------------------------------------------ *)

let test_admission_greedy_tenant_shed () =
  let adm = Router.Admission.create ~capacity:2 ~queue_deadline_s:0.05 in
  let admit tenant =
    match Router.Admission.acquire adm ~tenant with
    | Router.Admission.Admitted -> true
    | Router.Admission.Shed _ -> false
  in
  Alcotest.(check bool) "first slot" true (admit "acme");
  Alcotest.(check bool) "second slot" true (admit "acme");
  Alcotest.(check int) "both in flight" 2 (Router.Admission.in_flight adm);
  (match Router.Admission.acquire adm ~tenant:"acme" with
  | Router.Admission.Admitted -> Alcotest.fail "third slot over capacity admitted"
  | Router.Admission.Shed { pending; capacity } ->
    Alcotest.(check int) "shed names the capacity" 2 capacity;
    Alcotest.(check bool) "shed reports pending load" true (pending >= 2));
  Router.Admission.release adm ~tenant:"acme";
  Router.Admission.release adm ~tenant:"acme";
  Alcotest.(check int) "released" 0 (Router.Admission.in_flight adm)

let test_admission_starved_tenant_progresses () =
  (* tenant a holds the whole capacity; when b arrives, a release must let
     b in — the fair share bounds a at capacity/2 and b's wait ends *)
  let adm = Router.Admission.create ~capacity:2 ~queue_deadline_s:2.0 in
  (match Router.Admission.acquire adm ~tenant:"a" with
  | Router.Admission.Admitted -> ()
  | Router.Admission.Shed _ -> Alcotest.fail "a's first slot shed");
  (match Router.Admission.acquire adm ~tenant:"a" with
  | Router.Admission.Admitted -> ()
  | Router.Admission.Shed _ -> Alcotest.fail "a's second slot shed");
  let b_outcome = ref None in
  let waiter =
    Thread.create
      (fun () -> b_outcome := Some (Router.Admission.acquire adm ~tenant:"b"))
      ()
  in
  Thread.delay 0.05;
  Alcotest.(check (option bool)) "b still waiting" None
    (Option.map (fun _ -> true) !b_outcome);
  Router.Admission.release adm ~tenant:"a";
  Thread.join waiter;
  (match !b_outcome with
  | Some Router.Admission.Admitted -> ()
  | Some (Router.Admission.Shed _) ->
    Alcotest.fail "b was shed although a released within the deadline"
  | None -> Alcotest.fail "b's acquire never returned");
  Router.Admission.release adm ~tenant:"b";
  Router.Admission.release adm ~tenant:"a";
  Alcotest.(check int) "drained" 0 (Router.Admission.in_flight adm)

(* ------------------------------------------------------------------ *)
(* Ejection of a crash-looping shard, cooldown re-admission            *)
(* ------------------------------------------------------------------ *)

let test_crash_loop_ejection_and_cooldown () =
  let dir = fresh_dir () in
  let starts = ref 0 in
  (* a shard that dies the instant it is started: every monitor poll sees
     a corpse, every respawn burns one token of the window *)
  let flaky =
    {
      Router.name = "flaky";
      socket_path = Filename.concat dir "flaky.sock";
      start = (fun () -> incr starts);
      stop = (fun () -> ());
      alive = (fun () -> false);
      pid = (fun () -> None);
    }
  in
  let healthy =
    Router.inproc_backend
      {
        Service.Supervisor.default_config with
        Service.Supervisor.server =
          {
            Service.Server.default_config with
            Service.Server.socket_path = Filename.concat dir "healthy.sock";
            domains = 2;
            capacity = 8;
          };
      }
      ~name:"healthy"
  in
  let router =
    Router.create
      {
        Router.default_config with
        Router.socket_path = Filename.concat dir "router.sock";
        capacity = 8;
        probe_interval_s = 0.02;
        max_respawns = 2;
        respawn_window_s = 10.0;
        eject_cooldown_s = 0.3;
      }
      [ flaky; healthy ]
  in
  let thread = Thread.create Router.serve_forever router in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      Thread.join thread)
    (fun () ->
      let state_of name =
        List.find_map
          (fun e ->
            if entry_str "name" e = Some name then entry_str "state" e else None)
          (shard_entries (Router.fleet_json router))
      in
      eventually "the crash-looping shard to be ejected" (fun () ->
          state_of "flaky" = Some "ejected");
      let respawns =
        List.find_map
          (fun e ->
            if entry_str "name" e = Some "flaky" then entry_int "respawns" e
            else None)
          (shard_entries (Router.fleet_json router))
      in
      Alcotest.(check bool) "the window's respawn budget was spent" true
        (match respawns with Some n -> n >= 2 | None -> false);
      Alcotest.(check bool) "start was actually driven" true (!starts >= 2);
      (* compiles keep settling while one shard crash-loops *)
      Service.Client.with_connection
        ~socket_path:(Filename.concat dir "router.sock") (fun c ->
          let file = "during-ejection.c" in
          let expected = A.compile_buffered ~config ~file source in
          let got = ok_exn (Service.Client.compile c ~file ~config source) in
          check_same_compiled "compile with a shard ejected" expected got);
      (* cooldown expiry re-admits the shard (as down, to be probed) — it
         immediately starts burning a fresh window, so accept any
         non-ejected state ever being observed *)
      eventually "cooldown re-admission" (fun () ->
          match state_of "flaky" with
          | Some "ejected" -> false
          | Some _ -> true
          | None -> false))

(* ------------------------------------------------------------------ *)
(* Documents: health / stats / fleet, and the lone daemon's rejection  *)
(* ------------------------------------------------------------------ *)

let test_documents_shape () =
  with_fleet ~shards:2 (fun ~router:_ ~router_socket ~backends:_ ->
      Service.Client.with_connection ~socket_path:router_socket (fun c ->
          (* make the counters move before reading them *)
          let file = "doc.c" in
          ignore (ok_exn (Service.Client.compile c ~file ~config source));
          let health = ok_exn (Service.Client.health c ()) in
          Alcotest.(check (option string))
            "health.role" (Some "router")
            (Option.bind (J.member "role" health) J.to_str);
          Alcotest.(check (option string))
            "health.status" (Some "ok")
            (Option.bind (J.member "status" health) J.to_str);
          Alcotest.(check (option int))
            "health.shards_total" (Some 2)
            (Option.bind (J.member "shards_total" health) J.to_int);
          let stats = ok_exn (Service.Client.stats c ()) in
          let requests =
            match J.member "requests" stats with
            | Some r -> r
            | None -> Alcotest.fail "stats without requests"
          in
          Alcotest.(check bool)
            "stats.requests.routed counted the compile" true
            (match Option.bind (J.member "routed" requests) J.to_int with
            | Some n -> n >= 1
            | None -> false);
          let fleet = ok_exn (Service.Client.fleet c ()) in
          Alcotest.(check (option int))
            "fleet is schema-stamped"
            (Some J.schema_version)
            (Option.bind (J.member "schema" fleet) J.to_int);
          (match Option.bind (J.member "ring" fleet) (J.member "shards") with
          | Some (J.List names) ->
            Alcotest.(check (list string))
              "ring lists both shards" [ "shard-0"; "shard-1" ]
              (List.filter_map J.to_str names)
          | _ -> Alcotest.fail "fleet without ring.shards");
          let entries = shard_entries fleet in
          Alcotest.(check int) "one entry per shard" 2 (List.length entries);
          List.iter
            (fun e ->
              Alcotest.(check bool)
                "entry carries probe counters" true
                (entry_int "probes_ok" e <> None
                && entry_int "respawns" e <> None);
              Alcotest.(check bool)
                "in-process shards have no pid" true
                (J.member "pid" e = Some J.Null))
            entries))

let test_single_daemon_rejects_fleet_op () =
  (* a lone mompd is not a router: the fleet op gets a structured
     bad-request, not a hang or a crash *)
  let dir = fresh_dir () in
  let socket_path = Filename.concat dir "lone.sock" in
  let server =
    Service.Server.create
      { Service.Server.default_config with Service.Server.socket_path }
  in
  let thread = Thread.create Service.Server.serve_forever server in
  Service.Client.with_connection ~socket_path (fun c ->
      (match Service.Client.fleet c () with
      | Ok _ -> Alcotest.fail "lone daemon answered the fleet op"
      | Error e ->
        Alcotest.(check string)
          "taxonomy kind" "bad-request"
          (E.kind_name e.E.kind));
      match Service.Client.shutdown c () with
      | Ok () -> ()
      | Error e -> Alcotest.failf "shutdown: %s" (E.to_string e));
  Thread.join thread

let suite =
  [
    Alcotest.test_case "ring: deterministic, order-insensitive, covering" `Quick
      test_ring_determinism;
    Alcotest.test_case "ring: removing a shard remaps only its keys" `Quick
      test_ring_minimal_remap;
    Alcotest.test_case "failover: injected shard-down is byte-identical" `Quick
      test_failover_byte_identity;
    Alcotest.test_case "failover: all shards down falls back in-process" `Quick
      test_all_down_falls_back_in_process;
    Alcotest.test_case "failover: a stopped shard is struck and routed around"
      `Quick test_stopped_shard_failover;
    Alcotest.test_case "admission: greedy tenant shed at the deadline" `Quick
      test_admission_greedy_tenant_shed;
    Alcotest.test_case "admission: waiting tenant admitted on release" `Quick
      test_admission_starved_tenant_progresses;
    Alcotest.test_case "monitor: crash-looping shard ejected, then re-admitted"
      `Quick test_crash_loop_ejection_and_cooldown;
    Alcotest.test_case "documents: health/stats/fleet shape" `Quick
      test_documents_shape;
    Alcotest.test_case "protocol: lone daemon rejects the fleet op" `Quick
      test_single_daemon_rejects_fleet_op;
  ]
