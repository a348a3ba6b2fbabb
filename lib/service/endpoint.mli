(** One Unix-socket line service: everything the compile daemon
    ({!Server}) and the fleet router ({!Router}) do around their request
    dispatch, so both answer through the same connection path.

    An endpoint binds (or borrows) a listening socket and hands each
    accepted connection to a thread running the bounded frame loop
    ({!Protocol.read_frame}).  Frames are decoded and validated here:
    oversized, unparseable and invalid lines all get a structured
    [Rejected] answer ([Bad_request], exit 42), and an oversized one then
    severs its connection, because the unread rest of the line cannot be
    resynchronized against.  Every valid request goes to the owner's
    dispatch, which answers it with a {!reply}.  Requests from one
    connection are answered in order; connections are independent.  No
    client input raises out of a connection thread.

    {b Drain.}  {!stop} (a [shutdown] request, a signal handler) ends the
    accept loop and turns {!draining} on — owners shed new compiles with a
    structured [Overload] from then on.  Requests already being answered
    finish, bounded by the drain deadline; then the remaining connections
    are severed and their threads joined.

    {b Fault sites.}  An endpoint created with an [injector] fires the
    daemon's service sites: [daemon-kill] once per accepted connection
    (the accept loop crashes), [conn-drop] once per decoded frame (the
    connection is dropped unanswered), and [slow-client] then
    [partial-frame] once per reply line, rejections included.  Without
    one, nothing fires.

    Uptime and the drain deadline read the monotonic clock. *)

type listener
(** A bound, listening Unix-domain socket. *)

val listen : string -> listener
(** Bind and listen on a socket path, replacing a stale socket file.
    Raises [Unix.Unix_error] on failure, [Invalid_argument] if the path
    exists and is not a socket.  {!Supervisor} binds once and lends the
    listener to every {!Server} incarnation. *)

val release : listener -> unit
(** Close the socket and remove its file. *)

type reply =
  | Reply of Protocol.response  (** encoded and written *)
  | Relay of string
      (** an already-encoded response line — a shard's — written
          verbatim *)
  | Reply_and_stop of Protocol.response
      (** written, then the endpoint {!stop}s and this connection closes:
          the [shutdown] op *)

type t

val create :
  ?injector:Fault.Injector.t ->
  ?lent:listener ->
  drain_deadline_s:float ->
  string ->
  t
(** [create socket_path] binds [socket_path] and owns the listener, which
    {!serve} releases on its way out.  With [~lent], it serves a listener
    bound to that path by its lender, which keeps it bound across a crash
    and releases it itself.  Raises as {!listen}. *)

val serve : t -> (string -> Protocol.request -> reply) -> int
(** Accept and answer until {!stop}; each valid request is dispatched
    with its raw line, for relays that forward the client's bytes.  Then
    drain (see the module header), release an owned listener, and return
    how many requests were still being answered when the drain deadline
    cut the wait short (0 after a complete drain).

    A crash of the accept loop severs and joins the connections without
    waiting, releases an owned listener and re-raises; a lent listener
    stays bound, so its lender can serve it again. *)

val stop : t -> unit
(** Stop accepting and start draining.  Thread-safe, idempotent, and safe
    from a signal handler; {!serve} still performs the drain. *)

val draining : t -> bool
(** True from {!stop} (or an accept-loop crash) on. *)

val uptime_s : t -> float
(** Seconds since {!create}. *)

val served : t -> int
(** Reply lines written, every kind. *)

val bad : t -> int
(** Requests answered with [Rejected]: frames rejected here plus those
    the dispatch rejected. *)

val injected_drops : t -> int
(** [conn-drop] and [partial-frame] faults fired. *)
