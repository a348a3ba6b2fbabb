(* The sharded compile fleet (docs/FLEET.md).

   What this suite pins: the consistent-hash ring's determinism, coverage
   and minimal-remap property; failover byte-identity when the injector
   declares the primary shard down (and the in-process fallback when every
   shard is); per-tenant fair-queue admission (a greedy tenant is shed at
   the deadline, a second tenant is not starved); the monitor's ejection
   of a crash-looping shard and its cooldown re-admission; the shape
   of the router's health/stats/fleet documents, including the lone
   daemon's structured rejection of the fleet op, and the ordered member
   names of every service document (test/service_documents.expected);
   that a router and a lone daemon answer hostile input byte for byte
   alike; and that a router shutdown drains replies already in flight. *)

module J = Observe.Json
module E = Fault.Ompgpu_error
module A = Ompgpu_api
module Router = Service.Router
module Ring = Service.Ring
open Helpers

(* Shards are stopped under live relays here; a write to a severed socket
   must surface as an error, not a process-killing SIGPIPE. *)
let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let config = A.Config.(default |> with_pipeline A.Pipeline.full |> with_sim)

let source =
  (Proxyapps.Apps.find_exn "xsbench").Proxyapps.App.omp_source Proxyapps.App.Tiny

(* A fleet of in-process supervised shards behind a router, in a fresh
   directory, torn down and removed even when the body raises.  [injector]
   arms router-level sites only. *)
let with_fleet ?(shards = 2) ?(injector = Fault.Injector.none)
    ?(shard_injector = Fault.Injector.none)
    ?(router_cfg = fun (c : Router.config) -> c) f =
  Replay.with_temp_dir "mompfl" @@ fun dir ->
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
                injector = shard_injector;
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

(* A lone in-process daemon (with a disk cache when [cached]) in a fresh
   directory, stopped and removed even when the body raises. *)
let with_daemon ?(cached = false) f =
  Replay.with_temp_dir "mompfl" @@ fun dir ->
  let socket_path = Filename.concat dir "lone.sock" in
  let cache_dir = if cached then Some (Filename.concat dir "cache") else None in
  let server =
    Service.Server.create
      { Service.Server.default_config with Service.Server.socket_path; cache_dir }
  in
  let thread = Thread.create Service.Server.serve_forever server in
  Fun.protect
    ~finally:(fun () ->
      Service.Server.stop server;
      Thread.join thread)
    (fun () -> f socket_path)

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
  Replay.with_temp_dir "mompfl" @@ fun dir ->
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
  Replay.with_temp_dir "mompfl" @@ fun dir ->
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

(* ------------------------------------------------------------------ *)
(* Document shape: ordered member names, values ignored                *)
(* ------------------------------------------------------------------ *)

(* Every member path of a document in order of first appearance: an
   object member is ["parent.name"], a list's elements share
   ["parent[]"].  Values are ignored, so the paths pin exactly what a
   reader of the document (benchmark/sut.ml, bench_gate, operators'
   scripts) may rely on. *)
let key_paths doc =
  let rec go prefix acc = function
    | J.Obj members ->
      List.fold_left
        (fun acc (k, v) ->
          let path = if prefix = "" then k else prefix ^ "." ^ k in
          go path (if List.mem path acc then acc else path :: acc) v)
        acc members
    | J.List items -> List.fold_left (go (prefix ^ "[]")) acc items
    | _ -> acc
  in
  List.rev (go "" [] doc)

let render_documents docs =
  String.concat ""
    (List.map
       (fun (name, doc) ->
         Printf.sprintf "[%s]\n%s" name
           (String.concat "" (List.map (fun p -> p ^ "\n") (key_paths doc))))
       docs)

let documents_golden () =
  let path =
    if Sys.file_exists "service_documents.expected" then
      "service_documents.expected"
    else "test/service_documents.expected"
  in
  In_channel.with_open_bin path In_channel.input_all

let test_documents_golden () =
  let daemon =
    with_daemon ~cached:true (fun socket_path ->
        Service.Client.with_connection ~socket_path (fun c ->
            [
              ("daemon stats", ok_exn (Service.Client.stats c ()));
              ("daemon health", ok_exn (Service.Client.health c ()));
            ]))
  in
  let fleet =
    with_fleet ~shards:2 (fun ~router:_ ~router_socket ~backends:_ ->
        Service.Client.with_connection ~socket_path:router_socket (fun c ->
            (* every shard up, so each fleet entry carries its live stats *)
            eventually "both shards probed up" (fun () ->
                Option.bind
                  (J.member "shards_up" (ok_exn (Service.Client.health c ())))
                  J.to_int
                = Some 2);
            [
              ("router health", ok_exn (Service.Client.health c ()));
              ("router stats", ok_exn (Service.Client.stats c ()));
              ("router fleet", ok_exn (Service.Client.fleet c ()));
            ]))
  in
  Alcotest.(check string)
    "ordered member paths match test/service_documents.expected"
    (documents_golden ())
    (render_documents (daemon @ fleet))

(* ------------------------------------------------------------------ *)
(* Hostile input: a router answers exactly as a lone daemon does       *)
(* ------------------------------------------------------------------ *)

(* One hostile exchange on a fresh connection: write [bytes], half-close,
   and collect every reply line until the peer hangs up.  A peer that
   stops reading (the oversized frame) may fail the write or reset the
   stream after its answer; either ends the exchange, not the test. *)
let exchange socket_path bytes =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket_path);
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
      let oc = Unix.out_channel_of_descr fd in
      (try
         Out_channel.output_string oc bytes;
         Out_channel.flush oc;
         Unix.shutdown fd Unix.SHUTDOWN_SEND
       with Sys_error _ | Unix.Unix_error _ -> ());
      let ic = Unix.in_channel_of_descr fd in
      let rec lines acc =
        match In_channel.input_line ic with
        | Some l -> lines (l :: acc)
        | None -> List.rev acc
        | exception Sys_error _ -> List.rev acc
      in
      lines [])

let hostile_inputs =
  [
    ("garbage bytes", "\x01\x02 not json at all\n");
    ("a JSON string", "\"hello\"\n");
    ("an unsupported version", {|{"v":99,"id":"v99","op":"stats"}|} ^ "\n");
    ("an unknown op", {|{"v":3,"id":"u1","op":"frobnicate"}|} ^ "\n");
    ("a request without an id", {|{"v":3,"op":"stats"}|} ^ "\n");
    ("a torn frame", {|{"v":3,"id":"torn","op":"sta|});
    ( "an oversized frame",
      String.make (Service.Protocol.max_frame_bytes + 1024) 'a' ^ "\n" );
  ]

let bad_count c =
  Option.bind
    (J.member "requests" (ok_exn (Service.Client.stats c ())))
    (fun r -> Option.bind (J.member "bad" r) J.to_int)

let test_router_matches_daemon_on_hostile_input () =
  let daemon_replies, daemon_bad =
    with_daemon (fun socket_path ->
        let replies =
          List.map (fun (_, bytes) -> exchange socket_path bytes) hostile_inputs
        in
        (replies, Service.Client.with_connection ~socket_path bad_count))
  in
  (* the server's own fault sites armed at the router, as [mompd route
     --inject] arms them: only a server may fire them *)
  let injector =
    Fault.Injector.create
      [
        { Fault.Injector.site = Fault.Injector.Conn_drop; rate = 1.0; seed = 3 };
        { Fault.Injector.site = Fault.Injector.Partial_frame; rate = 1.0; seed = 3 };
      ]
  in
  with_fleet ~shards:1 ~injector (fun ~router:_ ~router_socket ~backends:_ ->
      List.iter2
        (fun (what, bytes) expected ->
          Alcotest.(check (list string))
            (what ^ ": router replies byte-identical to the daemon's")
            expected
            (exchange router_socket bytes))
        hostile_inputs daemon_replies;
      Alcotest.(check bool) "every input was answered" true
        (List.for_all (fun r -> List.length r = 1) daemon_replies);
      Service.Client.with_connection ~socket_path:router_socket (fun c ->
          Alcotest.(check (option int))
            "router and daemon count the same bad requests" daemon_bad
            (bad_count c);
          let file = "after-hostile.c" in
          let expected = A.compile_buffered ~config ~file source in
          let got = ok_exn (Service.Client.compile c ~file ~config source) in
          check_same_compiled "compile routed after the hostile peers" expected
            got;
          let routed =
            Option.bind
              (J.member "requests" (ok_exn (Service.Client.stats c ())))
              (fun r -> Option.bind (J.member "routed" r) J.to_int)
          in
          Alcotest.(check (option int)) "the compile went to the shard" (Some 1)
            routed))

(* ------------------------------------------------------------------ *)
(* Drain: a router shutdown answers what is already in flight          *)
(* ------------------------------------------------------------------ *)

let test_router_drains_in_flight () =
  (* every shard reply waits 150ms (slow-client), so A's compile is still
     being relayed when B's shutdown reaches the router *)
  let shard_injector =
    Fault.Injector.create
      [ { Fault.Injector.site = Fault.Injector.Slow_client; rate = 1.0; seed = 1 } ]
  in
  with_fleet ~shards:1 ~shard_injector
    (fun ~router:_ ~router_socket ~backends:_ ->
      let file = "drain.c" in
      let request =
        Service.Protocol.Compile { id = "a"; file; source; config; tenant = None }
      in
      let expected =
        J.to_string ~minify:true
          (Service.Protocol.response_to_json
             (Service.Protocol.Compiled
                {
                  id = "a";
                  op = "run";
                  result = A.compile_buffered ~config ~file source;
                }))
      in
      let line =
        J.to_string ~minify:true (Service.Protocol.request_to_json request)
      in
      let a_replies = ref [] in
      let a =
        Thread.create
          (fun () -> a_replies := exchange router_socket (line ^ "\n"))
          ()
      in
      let late =
        Service.Client.connect ~deadline_s:10. ~socket_path:router_socket ()
      in
      eventually "A's compile admitted at the router" (fun () ->
          Service.Client.with_connection ~socket_path:router_socket (fun c ->
              Option.bind
                (J.member "in_flight" (ok_exn (Service.Client.health c ())))
                J.to_int
              = Some 1));
      Service.Client.with_connection ~socket_path:router_socket (fun b ->
          ok_exn (Service.Client.shutdown b ()));
      (* a compile arriving mid-drain, on a connection opened before it *)
      let shed = Service.Client.compile late ~file ~config source in
      Service.Client.close late;
      Thread.join a;
      Alcotest.(check (list string))
        "the in-flight reply was delivered byte for byte" [ expected ]
        !a_replies;
      Alcotest.(check int) "a compile arriving mid-drain is shed" 40
        (ok_exn shed).A.exit_code)

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
    Alcotest.test_case "documents: ordered member paths match the golden"
      `Quick test_documents_golden;
    Alcotest.test_case "protocol: router answers hostile input as a daemon"
      `Quick test_router_matches_daemon_on_hostile_input;
    Alcotest.test_case "drain: router shutdown delivers in-flight replies"
      `Quick test_router_drains_in_flight;
  ]
