module E = Fault.Ompgpu_error

type t = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  peer : string;  (* the socket path, so transport errors name the shard *)
  mutable closed : bool;
}

let connect ?deadline_s ~socket_path () =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_UNIX socket_path);
     match deadline_s with
     | Some s when s > 0. ->
       (* the deadline is per blocking syscall, which upper-bounds each
          request round-trip: a wedged daemon turns into a timed-out read
          (a transient transport error), not a hung client *)
       Unix.setsockopt_float fd Unix.SO_RCVTIMEO s;
       Unix.setsockopt_float fd Unix.SO_SNDTIMEO s
     | _ -> ()
   with e ->
     Unix.close fd;
     raise e);
  {
    fd;
    ic = Unix.in_channel_of_descr fd;
    oc = Unix.out_channel_of_descr fd;
    peer = socket_path;
    closed = false;
  }

let close t =
  if not t.closed then begin
    t.closed <- true;
    (try flush t.oc with Sys_error _ -> ());
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let with_connection ~socket_path f =
  let t = connect ~socket_path () in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

(* Every transport breakdown names the peer it was observed against
   ([E.t.peer]), so a fleet-mode failure says *which* shard, not just
   "daemon unreachable". *)
let transport_error ~peer fmt =
  Printf.ksprintf (fun m -> Error (E.make E.Internal ~phase:E.Serving ~peer m)) fmt

let roundtrip_line t line =
  match
    Protocol.write_line t.oc line;
    Protocol.read_frame t.ic
  with
  | `Line reply -> Ok reply
  | `Eof -> transport_error ~peer:t.peer "connection closed before a response arrived"
  | `Overflow e -> Error e
  | exception Sys_error msg ->
    (* a timed-out or reset socket read/write; the stream can no longer be
       resynchronized, so the caller must reconnect *)
    transport_error ~peer:t.peer "transport failure: %s" msg
  | exception Sys_blocked_io ->
    (* the per-request deadline (SO_RCVTIMEO) fired mid-read *)
    transport_error ~peer:t.peer "request deadline exceeded waiting for the daemon"
  | exception End_of_file ->
    transport_error ~peer:t.peer "connection closed before a response arrived"

let roundtrip_json t j =
  Result.bind
    (roundtrip_line t (Observe.Json.to_string ~minify:true j))
    Protocol.decode_line

let roundtrip t request =
  match roundtrip_json t (Protocol.request_to_json request) with
  | Error e -> Error e
  | Ok j -> (
    match Protocol.response_of_json j with
    | Ok r -> Ok r
    | Error msg -> transport_error ~peer:t.peer "undecodable response: %s" msg)

(* A [Rejected] response is the daemon speaking the taxonomy; surface its
   error directly.  Any other unexpected shape is a protocol breakdown. *)
let rejected_or_mismatch ~peer ~expected = function
  | Protocol.Rejected { error; _ } -> Error error
  | Protocol.Compiled _ ->
    transport_error ~peer "expected a %s reply, got a compile result" expected
  | Protocol.Stats_reply _ -> transport_error ~peer "expected a %s reply, got stats" expected
  | Protocol.Health_reply _ -> transport_error ~peer "expected a %s reply, got health" expected
  | Protocol.Fleet_reply _ ->
    transport_error ~peer "expected a %s reply, got a fleet document" expected
  | Protocol.Shutdown_ack _ ->
    transport_error ~peer "expected a %s reply, got a shutdown acknowledgement" expected

let compile t ?(id = "c0") ?(file = "<service>") ?tenant ~config source =
  match roundtrip t (Protocol.Compile { id; file; source; config; tenant }) with
  | Error e -> Error e
  | Ok (Protocol.Compiled { result; _ }) -> Ok result
  | Ok other -> rejected_or_mismatch ~peer:t.peer ~expected:"compile" other

let stats t ?(id = "s0") () =
  match roundtrip t (Protocol.Stats { id }) with
  | Error e -> Error e
  | Ok (Protocol.Stats_reply { stats; _ }) -> Ok stats
  | Ok other -> rejected_or_mismatch ~peer:t.peer ~expected:"stats" other

let health t ?(id = "h0") () =
  match roundtrip t (Protocol.Health { id }) with
  | Error e -> Error e
  | Ok (Protocol.Health_reply { health; _ }) -> Ok health
  | Ok other -> rejected_or_mismatch ~peer:t.peer ~expected:"health" other

let fleet t ?(id = "f0") () =
  match roundtrip t (Protocol.Fleet { id }) with
  | Error e -> Error e
  | Ok (Protocol.Fleet_reply { fleet; _ }) -> Ok fleet
  | Ok other -> rejected_or_mismatch ~peer:t.peer ~expected:"fleet" other

let shutdown t ?(id = "q0") () =
  match roundtrip t (Protocol.Shutdown { id }) with
  | Error e -> Error e
  | Ok (Protocol.Shutdown_ack _) -> Ok ()
  | Ok other -> rejected_or_mismatch ~peer:t.peer ~expected:"shutdown" other

(* ------------------------------------------------------------------ *)
(* Resilient sessions                                                  *)
(* ------------------------------------------------------------------ *)

type policy = {
  attempts : int;
  backoff_base_s : float;
  backoff_cap_s : float;
  deadline_s : float option;
}

let default_policy =
  { attempts = 4; backoff_base_s = 0.02; backoff_cap_s = 0.25; deadline_s = Some 30. }

type session = {
  socket_path : string;
  policy : policy;
  mutable conn : t option;
  mutable retries : int;
  mutable reconnects : int;
}

let session ?(policy = default_policy) ~socket_path () =
  {
    socket_path;
    policy = { policy with attempts = max 1 policy.attempts };
    conn = None;
    retries = 0;
    reconnects = 0;
  }

let session_retries s = s.retries
let session_reconnects s = s.reconnects

let drop_conn s =
  Option.iter close s.conn;
  s.conn <- None

let session_close = drop_conn

(* Deterministic jitter in [0.75, 1.25): no wall-clock or PRNG state, so
   a replayed run backs off identically. *)
let jitter key =
  let h = Hashtbl.hash key land 0xFFFF in
  0.75 +. (0.5 *. (float_of_int h /. 65536.))

let backoff_delay policy ~attempt ~key =
  min policy.backoff_cap_s
    (policy.backoff_base_s *. (2. ** float_of_int attempt))
  *. jitter (key, attempt)

let unavailable ~peer fmt =
  Printf.ksprintf (fun m -> E.make E.Internal ~phase:E.Serving ~peer m) fmt

let ensure_conn s =
  match s.conn with
  | Some c when not c.closed -> Ok c
  | _ -> (
    s.conn <- None;
    match connect ?deadline_s:s.policy.deadline_s ~socket_path:s.socket_path () with
    | c ->
      if s.retries > 0 || s.reconnects > 0 then s.reconnects <- s.reconnects + 1;
      s.conn <- Some c;
      Ok c
    | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
      (* no socket file at all: the daemon was never started here — do not
         burn the retry budget, degrade immediately *)
      Error
        (`Fatal
          (unavailable ~peer:s.socket_path "no daemon at %s (socket file missing)"
             s.socket_path))
    | exception Unix.Unix_error (err, _, _) ->
      (* ECONNREFUSED and friends: a stale socket — the daemon may be mid
         restart, worth the bounded retries *)
      Error
        (`Transient
          (unavailable ~peer:s.socket_path "cannot reach daemon at %s: %s"
             s.socket_path (Unix.error_message err))))

let try_once s ~id ~file ~config source =
  match ensure_conn s with
  | Error (`Fatal _ as f) -> f
  | Error (`Transient _ as tr) -> tr
  | Ok c -> (
    match compile c ~id ~file ~config source with
    | Ok r -> `Ok r
    | Error e -> (
      match e.E.kind with
      | E.Internal ->
        (* transport breakdowns (dropped/reset/timed-out connection, torn
           or undecodable frame) and handler crashes both surface as
           [Internal]: the stream may be desynchronized, so reconnect, and
           a fresh attempt is worthwhile either way *)
        drop_conn s;
        `Transient e
      | _ -> if E.is_transient e then `Transient e else `Fatal e)
    | exception (Sys_error _ | End_of_file) ->
      drop_conn s;
      `Transient
        (unavailable ~peer:s.socket_path "connection to %s broke mid-request"
           s.socket_path)
    | exception Unix.Unix_error (err, _, _) ->
      drop_conn s;
      `Transient
        (unavailable ~peer:s.socket_path "connection to %s failed: %s"
           s.socket_path (Unix.error_message err)))

(* One compile with the full client-resilience loop: per-request deadline
   (set at connect), bounded jittered retries over transient failures
   (dropped/reset/timed-out connections, torn frames, shed [Overload]
   responses), transparent reconnect between attempts.  [Error] means the
   daemon could not settle this request inside the budget — the caller's
   graceful degradation (compile in-process) takes over. *)
let session_compile s ?(id = "c0") ?(file = "<service>") ~config source =
  let rec go attempt =
    match try_once s ~id ~file ~config source with
    | `Ok r -> Ok r
    | `Fatal e -> Error e
    | `Transient e ->
      if attempt + 1 >= s.policy.attempts then Error e
      else begin
        s.retries <- s.retries + 1;
        Unix.sleepf (backoff_delay s.policy ~attempt ~key:(id, file));
        go (attempt + 1)
      end
  in
  go 0
