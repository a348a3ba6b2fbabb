(* Crash-only supervision of the serve loop (see the .mli). *)

module E = Fault.Ompgpu_error
module J = Observe.Json

type config = {
  server : Server.config;
  max_restarts : int;
  window_s : float;
  backoff_base_s : float;
  backoff_cap_s : float;
  log : string -> unit;
}

let default_config =
  {
    server = Server.default_config;
    max_restarts = 5;
    window_s = 10.;
    backoff_base_s = 0.05;
    backoff_cap_s = 1.0;
    log = ignore;
  }

type t = {
  cfg : config;
  listener : Endpoint.listener;
  journal : (Journal.t * Journal.recovery) option;
  supervision : Server.supervision;
  mutex : Mutex.t;
  mutable current : Server.t option;
  mutable stopping : bool;
  mutable crash_times : float list;
}

let create cfg =
  (* Bind once, before the first incarnation: the listening socket (and
     its backlog) survives every serve-loop crash, so clients connecting
     during a restart queue instead of failing. *)
  let listener = Endpoint.listen cfg.server.Server.socket_path in
  let supervision = Server.new_supervision () in
  let journal =
    match cfg.server.Server.state_dir with
    | None -> None
    | Some dir ->
      Some
        (Journal.open_ ?max_bytes:cfg.server.Server.journal_max_bytes
           ~on_rotate:(fun () -> supervision.Server.on_journal_rotate ())
           ~dir ())
  in
  {
    cfg;
    listener;
    journal;
    supervision;
    mutex = Mutex.create ();
    current = None;
    stopping = false;
    crash_times = [];
  }

let supervision t = t.supervision
let recovery t =
  match t.journal with
  | Some (_, r) -> r
  | None -> Journal.empty_recovery

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let stop t =
  let server =
    locked t (fun () ->
        t.stopping <- true;
        t.current)
  in
  Option.iter Server.stop server

(* Deterministic jitter (same shape as the client's): replays back off
   identically, and a herd of supervisors desynchronizes. *)
let jitter key =
  let h = Hashtbl.hash key land 0xFFFF in
  0.75 +. (0.5 *. (float_of_int h /. 65536.))

let backoff_delay cfg ~restart =
  min cfg.backoff_cap_s
    (cfg.backoff_base_s *. (2. ** float_of_int (restart - 1)))
  *. jitter (cfg.server.Server.socket_path, restart)

let journal_event t ev members =
  match t.journal with
  | Some (j, _) -> Journal.event j ev members
  | None -> ()

let cleanup t =
  Endpoint.release t.listener;
  match t.journal with Some (j, _) -> Journal.close j | None -> ()

let run t =
  let rec incarnation () =
    if locked t (fun () -> t.stopping) then Ok ()
    else begin
      let server =
        Server.create ~listener:t.listener ?journal:t.journal
          ~supervision:t.supervision t.cfg.server
      in
      locked t (fun () -> t.current <- Some server);
      (* a stop that raced incarnation startup must still land *)
      if locked t (fun () -> t.stopping) then Server.stop server;
      match Server.serve_forever server with
      | () -> Ok () (* clean stop: shutdown request, signal, or [stop] *)
      | exception e ->
        let crash = Printexc.to_string e in
        let now = Unix.gettimeofday () in
        let recent =
          now
          :: List.filter
               (fun at -> now -. at <= t.cfg.window_s)
               t.crash_times
        in
        t.crash_times <- recent;
        t.supervision.Server.last_crash <- Some crash;
        if List.length recent > t.cfg.max_restarts then begin
          (* crash loop: the breaker opens instead of burning CPU on a
             daemon that cannot stay up; exit code 41 is the contract *)
          t.supervision.Server.breaker_open <- true;
          journal_event t "breaker-open"
            [
              ("crashes", J.Int (List.length recent));
              ("window_s", J.Float t.cfg.window_s);
              ("last", J.String crash);
            ];
          t.cfg.log
            (Printf.sprintf
               "mompd: circuit breaker open: %d crashes within %gs (last: %s)"
               (List.length recent) t.cfg.window_s crash);
          Error
            (E.make
               (E.Crash_loop
                  {
                    restarts = List.length recent;
                    window_s = t.cfg.window_s;
                  })
               ~phase:E.Serving
               (Printf.sprintf "serve loop crash-looping; last crash: %s"
                  crash))
        end
        else begin
          t.supervision.Server.restarts <-
            t.supervision.Server.restarts + 1;
          let restart = t.supervision.Server.restarts in
          let delay = backoff_delay t.cfg ~restart in
          journal_event t "restart"
            [
              ("n", J.Int restart);
              ("backoff_s", J.Float delay);
              ("crash", J.String crash);
            ];
          t.cfg.log
            (Printf.sprintf
               "mompd: serve loop crashed (%s); restart #%d in %.0fms" crash
               restart (delay *. 1000.));
          Unix.sleepf delay;
          incarnation ()
        end
    end
  in
  Fun.protect ~finally:(fun () -> cleanup t) incarnation

let run_config cfg = run (create cfg)
