(* Corpus replay through the serving path (see the .mli).  Clients are
   threads draining one shared queue, so [connections] concurrent
   sessions stress the accept loop, admission control and the shared
   caches the way a compile fleet would. *)

module Api = Ompgpu_api
module J = Observe.Json

type job = { file : string; config : Api.Config.t; src : string }

(* The tier slice keeps the Full cells only: those are the requests whose
   cold latency the fast tier hides, and O0 cells would be served as asked
   by either daemon.  They are compile-only because compilation is what
   the fast tier makes cheap (fast-tier code simulates slower, which would
   measure the simulator), and because fast and full IR genuinely differ,
   so an entry that was never upgraded cannot pass by accident. *)
let jobs ?(tier = false) ~root ~n () =
  let cell_job i prog (cell : Corpus.Matrix.cell) =
    let config = Corpus.Matrix.config_of_cell cell in
    Option.map
      (fun config ->
        {
          file = Printf.sprintf "corpus-%d-%s.c" i (Corpus.Matrix.cell_name cell);
          config;
          src = Corpus.Gen.render ~mode:cell.mode prog;
        })
      (match (tier, cell.pipeline) with
      | false, _ -> Some config
      | true, Corpus.Matrix.Full ->
        Some { config with Api.Config.run_sim = false; emit_ir = true }
      | true, Corpus.Matrix.O0 -> None)
  in
  List.init n (fun i ->
      let prog = Corpus.Gen.generate (Corpus.Gen.program_stream ~root i) in
      List.filter_map (cell_job i prog) Corpus.Matrix.cells)
  |> List.concat |> Array.of_list

let expected jobs =
  Array.map (fun j -> Api.compile_buffered ~config:j.config ~file:j.file j.src) jobs

type pass = {
  answers : (Api.compiled, Fault.Ompgpu_error.t) result option array;
  latency_s : float array;
  seconds : float;
}

let pass ?(taken = Atomic.make 0) ~connections ~socket_path jobs =
  let n = Array.length jobs in
  let answers = Array.make n None and latency_s = Array.make n 0.0 in
  let worker () =
    let session = Service.Client.session ~socket_path () in
    let rec loop () =
      let i = Atomic.fetch_and_add taken 1 in
      if i < n then begin
        let j = jobs.(i) in
        let t0 = Observe.Clock.now_s () in
        answers.(i) <-
          Some (Service.Client.session_compile session ~file:j.file ~config:j.config j.src);
        latency_s.(i) <- Observe.Clock.now_s () -. t0;
        loop ()
      end
    in
    loop ();
    Service.Client.session_close session
  in
  let t0 = Observe.Clock.now_s () in
  List.iter Thread.join (List.init connections (fun _ -> Thread.create worker ()));
  { answers; latency_s; seconds = Observe.Clock.now_s () -. t0 }

let per_s p =
  if p.seconds > 0.0 then float_of_int (Array.length p.answers) /. p.seconds else 0.0

let percentile_ms p q =
  let sorted = Array.copy p.latency_s in
  Array.sort compare sorted;
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (q /. 100.0 *. float_of_int n)) - 1 in
    1000.0 *. sorted.(max 0 (min (n - 1) rank))

type tally = { mismatched : int list; errors : int }

let tally ~expected p =
  let mismatched = ref [] and errors = ref 0 in
  Array.iteri
    (fun i answer ->
      match answer with
      | Some (Ok (got : Api.compiled)) ->
        let want = expected.(i) in
        if
          not
            (got.exit_code = want.Api.exit_code
            && String.equal got.output want.output
            && String.equal got.diagnostics want.diagnostics)
        then mismatched := i :: !mismatched
      | Some (Error _) | None -> incr errors)
    p.answers;
  { mismatched = List.rev !mismatched; errors = !errors }

let identical jobs tallies =
  List.iter
    (fun t ->
      match t.mismatched with
      | i :: _ -> Fmt.epr "replay: %s diverged from in-process compilation@." jobs.(i).file
      | [] -> ())
    tallies;
  List.for_all (fun t -> t.mismatched = [] && t.errors = 0) tallies

let transport_errors tallies = List.fold_left (fun n t -> n + t.errors) 0 tallies

(* ------------------------------------------------------------------ *)
(* Servers                                                             *)
(* ------------------------------------------------------------------ *)

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* A fresh directory each time: a reused one would carry an earlier
   run's disk cache and turn a cold pass warm. *)
let with_temp_dir prefix f =
  let dir = Filename.temp_dir prefix "" in
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

let with_daemon ?(tiered = false) ~domains f =
  with_temp_dir "mompd-replay" (fun dir ->
      let socket_path = Filename.concat dir "mompd.sock" in
      let server =
        Service.Server.create
          { Service.Server.default_config with socket_path; domains; tiered }
      in
      let thread = Thread.create Service.Server.serve_forever server in
      Fun.protect
        ~finally:(fun () ->
          Service.Server.stop server;
          Thread.join thread)
        (fun () -> f socket_path))

let with_fleet ~shards ~domains f =
  with_temp_dir "mompd-fleet" (fun dir ->
      let backends =
        List.init shards (fun i ->
            let name = Printf.sprintf "shard-%d" i in
            Service.Router.inproc_backend ~name
              {
                Service.Supervisor.default_config with
                server =
                  {
                    Service.Server.default_config with
                    socket_path = Filename.concat dir (name ^ ".sock");
                    domains;
                    capacity = 4 * domains;
                    cache_dir = Some (Filename.concat dir "cache");
                  };
              })
      in
      let socket_path = Filename.concat dir "router.sock" in
      let router =
        Service.Router.create
          {
            Service.Router.default_config with
            socket_path;
            capacity = 4 * domains * shards;
            probe_interval_s = 0.05;
          }
          backends
      in
      let thread = Thread.create Service.Router.serve_forever router in
      Fun.protect
        ~finally:(fun () ->
          Service.Router.stop router;
          Thread.join thread)
        (fun () -> f ~socket_path ~backends))

let fleet_doc socket_path =
  Service.Client.with_connection ~socket_path (fun c ->
      match Service.Client.fleet c () with Ok doc -> doc | Error _ -> J.Obj [])

let int_at path doc =
  List.fold_left (fun j k -> Option.bind j (J.member k)) (Some doc) path
  |> Fun.flip Option.bind J.to_int
  |> Option.value ~default:0

let shard_sum path doc =
  match J.member "shards" doc with
  | Some (J.List entries) -> List.fold_left (fun n e -> n + int_at path e) 0 entries
  | _ -> 0

(* ------------------------------------------------------------------ *)
(* Replays                                                             *)
(* ------------------------------------------------------------------ *)

(* The members the corpus section and each fleet scaling entry share, in
   their BENCH_observe.json order. *)
let cold_warm ~n ~connections ~domains jobs ~expected cold warm =
  let t = [ tally ~expected cold; tally ~expected warm ] in
  [
    ("programs", J.Int n);
    ("jobs", J.Int (Array.length jobs));
    ("connections", J.Int connections);
    ("domains", J.Int domains);
    ("cold_s", J.Float cold.seconds);
    ("warm_s", J.Float warm.seconds);
    ("cold_compiles_per_s", J.Float (per_s cold));
    ("warm_compiles_per_s", J.Float (per_s warm));
    ("byte_identical", J.Bool (identical jobs t));
    ("transport_errors", J.Int (transport_errors t));
  ]

let daemon ~connections ~domains ~root ~n =
  let jobs = jobs ~root ~n () in
  let expected = expected jobs in
  with_daemon ~domains (fun socket_path ->
      let cold = pass ~connections ~socket_path jobs in
      let warm = pass ~connections ~socket_path jobs in
      J.with_schema (J.Obj (cold_warm ~n ~connections ~domains jobs ~expected cold warm)))

(* A warm answer served from a shard's memory shows as one more cache hit
   between the cold and the warm pass: the consistent-hash ring keeping
   each key on its warm shard is the point of sharding. *)
let fleet ~connections ~shards ~domains ~root ~n =
  let jobs = jobs ~root ~n () in
  let expected = expected jobs in
  let hits = shard_sum [ "stats"; "cache"; "hits" ] in
  with_fleet ~shards ~domains (fun ~socket_path ~backends:_ ->
      let cold = pass ~connections ~socket_path jobs in
      let cold_hits = hits (fleet_doc socket_path) in
      let warm = pass ~connections ~socket_path jobs in
      let doc = fleet_doc socket_path in
      let warm_hits = hits doc - cold_hits in
      J.with_schema
        (J.Obj
           (cold_warm ~n ~connections ~domains jobs ~expected cold warm
           @ [
               ("shards", J.Int shards);
               ("failovers", J.Int (int_at [ "router"; "failovers" ] doc));
               ("fallbacks", J.Int (int_at [ "router"; "fallbacks" ] doc));
               ( "warm_hit_ratio",
                 J.Float
                   (if Array.length jobs > 0 then
                      float_of_int warm_hits /. float_of_int (Array.length jobs)
                    else 0.0) );
             ])))

(* Until the upgrade queue has settled (nothing pending, every queued
   upgrade done or failed) or 120 s have passed; returns upgrades done. *)
let upgrades_drained socket_path =
  let deadline = Observe.Clock.now_s () +. 120.0 in
  let rec loop () =
    let stats =
      Service.Client.with_connection ~socket_path (fun c ->
          match Service.Client.stats c () with Ok doc -> doc | Error _ -> J.Obj [])
    in
    let tier k = int_at [ "tiers"; k ] stats in
    if
      (tier "upgrades_pending" = 0
      && tier "upgrades_done" + tier "upgrades_failed" >= tier "upgrades_queued")
      || Observe.Clock.now_s () > deadline
    then tier "upgrades_done"
    else begin
      Thread.delay 0.02;
      loop ()
    end
  in
  loop ()

let tiers ~connections ~domains ~root ~n =
  let jobs = jobs ~tier:true ~root ~n () in
  let expected = expected jobs in
  let full_cold, full_warm =
    with_daemon ~domains (fun socket_path ->
        let cold = pass ~connections ~socket_path jobs in
        (cold, pass ~connections ~socket_path jobs))
  in
  let tiered_cold, upgrades_done, drain_s, tiered_warm =
    with_daemon ~tiered:true ~domains (fun socket_path ->
        let cold = pass ~connections ~socket_path jobs in
        let t0 = Observe.Clock.now_s () in
        let upgrades_done = upgrades_drained socket_path in
        let drain_s = Observe.Clock.now_s () -. t0 in
        (cold, upgrades_done, drain_s, pass ~connections ~socket_path jobs))
  in
  (* tiered cold answers are fast-tier bytes: only their errors count *)
  let checked = List.map (tally ~expected) [ full_cold; full_warm; tiered_warm ] in
  let errors = transport_errors (tally ~expected tiered_cold :: checked) in
  J.with_schema
    (J.Obj
       [
         ("jobs", J.Int (Array.length jobs));
         ("connections", J.Int connections);
         ("domains", J.Int domains);
         ("full_cold_p50_ms", J.Float (percentile_ms full_cold 50.0));
         ("tiered_cold_p50_ms", J.Float (percentile_ms tiered_cold 50.0));
         ("full_warm_compiles_per_s", J.Float (per_s full_warm));
         ("tiered_warm_compiles_per_s", J.Float (per_s tiered_warm));
         ("upgrades_done", J.Int upgrades_done);
         ("upgrade_drain_s", J.Float drain_s);
         ( "upgrades_per_s",
           J.Float (if drain_s > 0.0 then float_of_int upgrades_done /. drain_s else 0.0) );
         ("byte_identical", J.Bool (identical jobs checked && errors = 0));
         ("transport_errors", J.Int errors);
       ])

let byte_identical section = J.member "byte_identical" section = Some (J.Bool true)

let summary section =
  let member (k, v) =
    match v with
    | J.Int i when k <> "schema" -> Some (Printf.sprintf "%s %d" k i)
    | J.Float f -> Some (Printf.sprintf "%s %.2f" k f)
    | J.Bool b -> Some (Printf.sprintf "%s %b" k b)
    | J.String s -> Some (Printf.sprintf "%s %s" k s)
    | _ -> None
  in
  match section with
  | J.Obj members -> String.concat "  " (List.filter_map member members)
  | j -> J.to_string ~minify:true j
