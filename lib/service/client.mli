(** Client side of the compile-service wire protocol.

    Two layers:

    - A {!t} is one raw connection: requests written through it are
      answered in order, so a client can pipeline.  All helpers speak
      {!Protocol} v3 and return decoding problems as structured errors
      rather than raising — the only exceptions escaping are
      [Unix.Unix_error] from {!connect} (the daemon is down, the socket
      path is wrong).

    - A {!session} is the resilient layer [mompc --daemon] uses: it owns
      connections internally and gives each compile a deadline, bounded
      jittered retries over transient failures (dropped or reset
      connections, torn response frames, timed-out reads, shed
      [Overload] responses) and transparent reconnect between attempts.
      When the retry budget is exhausted — or no daemon exists at all —
      {!session_compile} returns [Error] and the caller degrades to
      in-process compilation ({!Ompgpu_api.compile_buffered}), whose
      bytes are identical by construction. *)

type t

val connect : ?deadline_s:float -> socket_path:string -> unit -> t
(** Raises [Unix.Unix_error] when nothing listens at [socket_path].
    [deadline_s] arms [SO_RCVTIMEO]/[SO_SNDTIMEO] on the socket, turning
    a wedged daemon into a timed-out read ([Error], transient) instead of
    a hung client. *)

val close : t -> unit
(** Idempotent. *)

val with_connection : socket_path:string -> (t -> 'a) -> 'a
(** [connect], run the callback, always [close]. *)

val roundtrip :
  t -> Protocol.request -> (Protocol.response, Fault.Ompgpu_error.t) result
(** Send one request and block for its response line.  [Error] covers a
    connection closed mid-response, a timed-out read, and undecodable
    response bytes (all [Internal], phase [Serving]). *)

val roundtrip_line : t -> string -> (string, Fault.Ompgpu_error.t) result
(** One raw line out (the newline is appended), one raw line back:
    neither is decoded, so the router relays a shard's reply byte for
    byte.  A torn reply comes back as its bytes; [Error] covers a closed,
    reset or timed-out connection and an oversized reply. *)

val roundtrip_json :
  t -> Observe.Json.t -> (Observe.Json.t, Fault.Ompgpu_error.t) result
(** {!roundtrip_line} with JSON on both ends, no request or response
    decoding — what [mompd request] and protocol tests speak. *)

val compile :
  t ->
  ?id:string ->
  ?file:string ->
  ?tenant:string ->
  config:Ompgpu_api.Config.t ->
  string ->
  (Ompgpu_api.compiled, Fault.Ompgpu_error.t) result
(** Compile one source through the daemon.  [Ok] carries every settled
    result — including structured failures ([compiled.exit_code <> 0],
    e.g. a shed request) — whose bytes match a one-shot [mompc]; [Error]
    is reserved for transport/protocol breakdowns ([Internal], phase
    [Serving], [peer] = the socket path, so fleet-mode failures name the
    shard).  [file] defaults to ["<service>"], [id] to ["c0"]; [tenant]
    names the admission-quota identity under the fleet router and is
    omitted from the wire when absent. *)

val stats :
  t -> ?id:string -> unit -> (Observe.Json.t, Fault.Ompgpu_error.t) result
(** The daemon's live counters (schema 2). *)

val health :
  t -> ?id:string -> unit -> (Observe.Json.t, Fault.Ompgpu_error.t) result
(** The daemon's health document (schema 2): status, uptime, in-flight,
    breaker state, restart and journal-replay counts. *)

val fleet :
  t -> ?id:string -> unit -> (Observe.Json.t, Fault.Ompgpu_error.t) result
(** The fleet document (schema 2): ring layout plus one entry per shard
    with its health state and stats.  Only the {!Router} answers this; a
    single-shard daemon rejects it with [Bad_request]. *)

val shutdown :
  t -> ?id:string -> unit -> (unit, Fault.Ompgpu_error.t) result
(** Ask the daemon to drain and stop; [Ok ()] once acknowledged. *)

(** {1 Resilient sessions} *)

type policy = {
  attempts : int;  (** total tries per request, at least 1 *)
  backoff_base_s : float;  (** delay before the first retry *)
  backoff_cap_s : float;  (** exponential growth stops here *)
  deadline_s : float option;  (** per-request socket deadline *)
}

val default_policy : policy
(** 4 attempts, 20ms base doubling to a 250ms cap (deterministically
    jittered by ±25%), 30s deadline.  A daemonless [mompc --daemon]
    falls back in well under a second. *)

type session

val session : ?policy:policy -> socket_path:string -> unit -> session
(** No I/O happens here; the first {!session_compile} connects. *)

val session_compile :
  session ->
  ?id:string ->
  ?file:string ->
  config:Ompgpu_api.Config.t ->
  string ->
  (Ompgpu_api.compiled, Fault.Ompgpu_error.t) result
(** One compile under the resilience loop (see the module header).
    Compiles are pure, so retrying a torn request is always safe.
    [Error] = the daemon could not settle the request inside the budget;
    degrade to in-process compilation. *)

val session_close : session -> unit
(** Drop the session's connection, if any.  Idempotent. *)

val session_retries : session -> int
(** Transient-failure retries performed so far (soak assertions). *)

val session_reconnects : session -> int
(** Successful reconnects after a broken connection. *)
