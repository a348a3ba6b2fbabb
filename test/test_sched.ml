(* The FIFO domain pool and result cache: ordering, backpressure, helping
   awaiters, exception propagation, hit/miss accounting — and the
   properties the parallel driver stands on: byte-identical tables at any
   [-j] and no remark/trace bleed between concurrent pipeline jobs. *)

let machine = Gpusim.Machine.test_machine
let scale = Proxyapps.App.Tiny

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_map_list_order () =
  Sched.Pool.with_pool ~domains:4 @@ fun pool ->
  let xs = List.init 100 Fun.id in
  let ys = Sched.Pool.map_list pool (fun x -> x * x) xs in
  Alcotest.(check (list int)) "results in input order" (List.map (fun x -> x * x) xs) ys;
  let s = Sched.Pool.stats pool in
  Alcotest.(check int) "all submitted" 100 s.Sched.Pool.submitted;
  Alcotest.(check int) "all executed" 100 s.Sched.Pool.executed

let test_backpressure () =
  (* queue capacity 3: the submitter must block rather than queue a 4th
     pending job, so the high-water mark never exceeds the capacity *)
  let capacity = 3 in
  Sched.Pool.with_pool ~queue_capacity:capacity ~domains:2 @@ fun pool ->
  let spin = ref 0 in
  let job _ =
    (* enough work that the queue actually fills *)
    for _ = 1 to 10_000 do
      incr spin
    done
  in
  ignore (Sched.Pool.map_list pool job (List.init 50 Fun.id));
  let s = Sched.Pool.stats pool in
  Alcotest.(check bool)
    (Printf.sprintf "max_pending %d <= capacity %d" s.Sched.Pool.max_pending capacity)
    true
    (s.Sched.Pool.max_pending <= capacity)

exception Boom of string

let test_exception_propagation () =
  Sched.Pool.with_pool ~domains:2 @@ fun pool ->
  let ok = Sched.Pool.submit pool (fun () -> 41 + 1) in
  let bad = Sched.Pool.submit pool (fun () -> raise (Boom "from job")) in
  Alcotest.(check int) "healthy job unaffected" 42 (Sched.Pool.await ok);
  match Sched.Pool.await bad with
  | () -> Alcotest.fail "await of failing job returned"
  | exception Boom msg -> Alcotest.(check string) "original exception" "from job" msg

let test_submit_after_shutdown () =
  let pool = Sched.Pool.create ~domains:1 () in
  Sched.Pool.shutdown pool;
  Sched.Pool.shutdown pool;
  (* idempotent *)
  match Sched.Pool.submit pool (fun () -> ()) with
  | _ -> Alcotest.fail "submit after shutdown accepted"
  | exception Invalid_argument _ -> ()

(* A batch an order of magnitude past anything the drivers submit: 500
   jobs whose costs span four orders of magnitude (no-ops through ~1M
   iterations of mixing), mapped at every -j the CI matrix uses.  The
   claims: every future settles (the map returns a full-length list — a
   lost future would hang or shorten it) and results land in input order
   independent of -j. *)
let test_stress_mixed_cost () =
  let n = 500 in
  (* deterministic mixed costs: 0, ~1e2, ~1e4, ~1e6 iterations *)
  let cost i = match i mod 4 with 0 -> 0 | 1 -> 100 | 2 -> 10_000 | _ -> 1_000_000 in
  let job i =
    let acc = ref i in
    for k = 1 to cost i do
      acc := (!acc * 31) + k
    done;
    (i, !acc)
  in
  let expected = List.init n job in
  List.iter
    (fun domains ->
      let r, s =
        Sched.Pool.with_pool ~domains @@ fun pool ->
        let r = Sched.Pool.map_list pool job (List.init n Fun.id) in
        (r, Sched.Pool.stats pool)
      in
      Alcotest.(check int) (Printf.sprintf "-j%d: no lost futures" domains) n (List.length r);
      Alcotest.(check bool)
        (Printf.sprintf "-j%d: deterministic, in input order" domains)
        true (r = expected);
      Alcotest.(check int)
        (Printf.sprintf "-j%d: executed all" domains)
        s.Sched.Pool.submitted s.Sched.Pool.executed)
    [ 1; 2; 4 ]

(* Who runs a job.  With one eager worker, a job that holds it leaves the
   next job queued, and an awaiting caller runs that job on its own domain
   (counted once in [stolen]) instead of blocking.  With no eager worker (a
   single-core host), the caller runs every job, oldest first.  Every wait
   gives up after 10 s, so a pool whose submit does not wake a waiting
   worker, or whose awaiter does not help, fails a check instead of
   hanging. *)
let test_caller_runs_queued_jobs () =
  let caller = Domain.self () in
  let spin_until ready =
    let deadline = Observe.Clock.now_s () +. 10. in
    while (not (ready ())) && Observe.Clock.now_s () < deadline do
      Domain.cpu_relax ()
    done;
    ready ()
  in
  Sched.Pool.with_pool ~domains:1 @@ fun pool ->
  match Sched.Pool.active_limit pool with
  | 1 ->
    let started = Atomic.make false and second_done = Atomic.make false in
    let held () =
      Atomic.set started true;
      ignore (spin_until (fun () -> Atomic.get second_done));
      Domain.self ()
    in
    (* once the idle worker waits, only the submit's signal can wake it *)
    Alcotest.(check bool) "the idle worker waits" true
      (spin_until (fun () -> (Sched.Pool.stats pool).Sched.Pool.waits > 0));
    let first = Sched.Pool.submit pool held in
    Alcotest.(check bool) "the submit woke the worker" true
      (spin_until (fun () -> Atomic.get started));
    let second =
      Sched.Pool.submit pool (fun () ->
          Atomic.set second_done true;
          Domain.self ())
    in
    let second_ran_on = Sched.Pool.await second in
    Alcotest.(check bool) "the queued job ran on the awaiting caller" true
      (second_ran_on = caller);
    Alcotest.(check bool) "the held job ran on the worker" true
      (Sched.Pool.await first <> caller);
    Alcotest.(check int) "stolen counts the caller's job once" 1
      (Sched.Pool.stats pool).Sched.Pool.stolen
  | 0 ->
    let ran = Mutex.create () and order = ref [] in
    let results =
      Sched.Pool.map_list pool
        (fun i ->
          Mutex.lock ran;
          order := i :: !order;
          Mutex.unlock ran;
          Domain.self ())
        (List.init 10 Fun.id)
    in
    Alcotest.(check (list int)) "submission order" (List.init 10 Fun.id) (List.rev !order);
    Alcotest.(check bool) "every job ran on the caller" true
      (List.for_all (fun d -> d = caller) results);
    Alcotest.(check int) "stolen counts every job" 10
      (Sched.Pool.stats pool).Sched.Pool.stolen
  | n -> Alcotest.failf "a 1-domain pool has %d eager workers" n

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let test_cache_accounting () =
  let cache : int Sched.Cache.t = Sched.Cache.create () in
  let computes = ref 0 in
  let compute () =
    incr computes;
    7
  in
  let k = Sched.Cache.key [ "module text"; "options"; "machine" ] in
  Alcotest.(check int) "first lookup computes" 7 (Sched.Cache.find_or_compute cache ~key:k compute);
  Alcotest.(check int) "second lookup cached" 7 (Sched.Cache.find_or_compute cache ~key:k compute);
  Alcotest.(check int) "thunk ran once" 1 !computes;
  Alcotest.(check int) "one miss" 1 (Sched.Cache.misses cache);
  Alcotest.(check int) "one hit" 1 (Sched.Cache.hits cache);
  Alcotest.(check (float 1e-9)) "hit rate" 0.5 (Sched.Cache.hit_rate cache);
  Alcotest.(check int) "one entry" 1 (Sched.Cache.length cache);
  Sched.Cache.reset_counters cache;
  Alcotest.(check int) "counters reset" 0 (Sched.Cache.hits cache);
  ignore (Sched.Cache.find_or_compute cache ~key:k compute);
  Alcotest.(check int) "entries survive reset" 1 (Sched.Cache.hits cache)

let test_cache_key_framing () =
  (* parts are length-framed: regrouping the same bytes is a different key *)
  Alcotest.(check bool)
    "[ab;c] <> [a;bc]" true
    (Sched.Cache.key [ "ab"; "c" ] <> Sched.Cache.key [ "a"; "bc" ]);
  Alcotest.(check bool)
    "[abc] <> [ab;c]" true
    (Sched.Cache.key [ "abc" ] <> Sched.Cache.key [ "ab"; "c" ]);
  Alcotest.(check string)
    "deterministic"
    (Sched.Cache.key [ "x"; "y" ])
    (Sched.Cache.key [ "x"; "y" ])

let test_cache_raising_thunk () =
  let cache : int Sched.Cache.t = Sched.Cache.create () in
  let k = Sched.Cache.key [ "k" ] in
  (match Sched.Cache.find_or_compute cache ~key:k (fun () -> raise (Boom "no")) with
  | _ -> Alcotest.fail "raising thunk returned"
  | exception Boom _ -> ());
  Alcotest.(check int) "nothing cached" 0 (Sched.Cache.length cache);
  Alcotest.(check int) "retry recomputes" 5 (Sched.Cache.find_or_compute cache ~key:k (fun () -> 5))

let test_concurrent_cache () =
  (* many domains racing on few keys: every key computes at least once,
     every lookup agrees on the value, accounting adds up *)
  let cache : string Sched.Cache.t = Sched.Cache.create () in
  let keys = List.init 5 (fun i -> Sched.Cache.key [ string_of_int i ]) in
  Sched.Pool.with_pool ~domains:8 @@ fun pool ->
  let results =
    Sched.Pool.map_list pool
      (fun i ->
        let k = List.nth keys (i mod 5) in
        Sched.Cache.find_or_compute cache ~key:k (fun () -> "v" ^ string_of_int (i mod 5)))
      (List.init 200 Fun.id)
  in
  List.iteri
    (fun i v -> Alcotest.(check string) "agreed value" ("v" ^ string_of_int (i mod 5)) v)
    results;
  Alcotest.(check int) "5 entries" 5 (Sched.Cache.length cache);
  Alcotest.(check int) "hits+misses = lookups" 200
    (Sched.Cache.hits cache + Sched.Cache.misses cache)

(* ------------------------------------------------------------------ *)
(* The driver properties                                               *)
(* ------------------------------------------------------------------ *)

let batch_jobs =
  List.concat_map
    (fun app -> [ (app, Harness.Config.dev0); (app, Harness.Config.llvm12) ])
    Proxyapps.Apps.all

let remark_strings (m : Harness.Runner.measurement) =
  match m.Harness.Runner.outcome with
  | Harness.Runner.Ok { report = Some r; _ } ->
    List.map Openmpopt.Remark.to_string r.Openmpopt.Pass_manager.remarks
  | _ -> []

let test_parallel_determinism () =
  (* same batch sequentially, at -j 1 and at -j 8: identical measurements,
     rendered identically *)
  let seq = Harness.Runner.run_batch ~machine ~scale batch_jobs in
  let j1 =
    Sched.Pool.with_pool ~domains:1 (fun pool ->
        Harness.Runner.run_batch ~machine ~scale ~pool batch_jobs)
  in
  let j8 =
    Sched.Pool.with_pool ~domains:8 (fun pool ->
        Harness.Runner.run_batch ~machine ~scale ~pool batch_jobs)
  in
  let fingerprint ms =
    String.concat "\n"
      (List.map
         (fun m -> Observe.Json.to_string (Harness.Runner.json_of_measurement m))
         ms)
  in
  Alcotest.(check string) "-j 1 = sequential" (fingerprint seq) (fingerprint j1);
  Alcotest.(check string) "-j 8 = sequential" (fingerprint seq) (fingerprint j8)

let test_no_remark_bleed () =
  (* Stress the per-job remark sinks: at -j 8 every job's report must carry
     exactly the remarks its sequential twin produced — a shared sink would
     interleave another job's remarks (different app names in the text). *)
  let seq = Harness.Runner.run_batch ~machine ~scale batch_jobs in
  let par =
    Sched.Pool.with_pool ~domains:8 (fun pool ->
        Harness.Runner.run_batch ~machine ~scale ~pool batch_jobs)
  in
  List.iter2
    (fun s p ->
      Alcotest.(check (list string))
        (s.Harness.Runner.app ^ "/" ^ s.Harness.Runner.config.Harness.Config.label
       ^ " remarks identical")
        (remark_strings s) (remark_strings p))
    seq par

let test_cached_batch () =
  (* a warm batch over a shared cache: all hits, measurements unchanged *)
  let cache : Harness.Runner.outcome Sched.Cache.t = Sched.Cache.create () in
  let cold =
    Sched.Pool.with_pool ~domains:4 (fun pool ->
        Harness.Runner.run_batch ~machine ~scale ~pool ~cache batch_jobs)
  in
  Alcotest.(check int) "cold run misses" (List.length batch_jobs) (Sched.Cache.misses cache);
  Sched.Cache.reset_counters cache;
  let warm =
    Sched.Pool.with_pool ~domains:4 (fun pool ->
        Harness.Runner.run_batch ~machine ~scale ~pool ~cache batch_jobs)
  in
  Alcotest.(check int) "warm run all hits" (List.length batch_jobs) (Sched.Cache.hits cache);
  Alcotest.(check int) "warm run no misses" 0 (Sched.Cache.misses cache);
  let fingerprint ms =
    String.concat "\n"
      (List.map
         (fun (m : Harness.Runner.measurement) ->
           m.Harness.Runner.app ^ "/" ^ m.Harness.Runner.config.Harness.Config.label
           ^ "/"
           ^
           match m.Harness.Runner.outcome with
           | Harness.Runner.Ok x -> string_of_int x.Harness.Runner.cycles
           | Harness.Runner.Err e -> "err:" ^ Fault.Ompgpu_error.to_string e)
         ms)
  in
  Alcotest.(check string) "warm = cold" (fingerprint cold) (fingerprint warm)

let suite =
  [
    Alcotest.test_case "map_list order" `Quick test_map_list_order;
    Alcotest.test_case "backpressure bound" `Quick test_backpressure;
    Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
    Alcotest.test_case "submit after shutdown" `Quick test_submit_after_shutdown;
    Alcotest.test_case "stress: 500 mixed-cost jobs" `Slow test_stress_mixed_cost;
    Alcotest.test_case "caller runs queued jobs" `Quick test_caller_runs_queued_jobs;
    Alcotest.test_case "cache accounting" `Quick test_cache_accounting;
    Alcotest.test_case "cache key framing" `Quick test_cache_key_framing;
    Alcotest.test_case "cache raising thunk" `Quick test_cache_raising_thunk;
    Alcotest.test_case "concurrent cache" `Quick test_concurrent_cache;
    Alcotest.test_case "parallel determinism" `Slow test_parallel_determinism;
    Alcotest.test_case "no remark bleed" `Slow test_no_remark_bleed;
    Alcotest.test_case "cached batch" `Slow test_cached_batch;
  ]
