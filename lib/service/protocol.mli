(** Wire protocol v3 of the persistent compile service ([mompd]).

    Transport: newline-delimited JSON over a Unix-domain stream socket.
    Each request is one minified JSON object terminated by ['\n']; the
    server answers each request with exactly one response line, in request
    order per connection.  A connection carries any number of requests.

    v3 (api_version 3): the compile config's optional ["pipeline"] member —
    a pipeline spec string ([Pipeline.of_string]) — is the only way to
    select passes; without it the compile runs at O0.  The v2
    ["optimize"]/["disable"] members are rejected with [Bad_request],
    naming ["pipeline"] as the replacement.

    Every message carries [{"v": 3, ...}]; the server rejects other
    versions with a structured [Bad_request].  Requests carry a
    client-chosen ["id"] echoed verbatim in the response, so pipelined
    clients can match answers to questions.

    Operations ([op]):
    - ["compile"] — compile a MiniOMP source under a {!Ompgpu_api.Config}
    - ["run"] — sugar for compile with the simulator forced on
    - ["stats"] — the daemon's live counters (schema 2)
    - ["health"] — liveness/readiness: uptime, in-flight, breaker state,
      restart and journal-replay counts (schema 2)
    - ["fleet"] — aggregate per-shard health/stats; answered by the
      {!Router} front-end (a single-shard daemon rejects it)
    - ["shutdown"] — acknowledge, then drain and exit

    The full field-by-field specification lives in docs/API.md; the
    fixtures in test/test_service.ml pin the encoding. *)

val version : int
(** 3.  Breaking wire changes bump this; the server answers exactly the
    versions it supports and rejects the rest ([Bad_request], exit 42). *)

val max_frame_bytes : int
(** Upper bound on one request line (8 MiB).  A longer line is a hostile
    or broken peer; {!read_message} reports it as [`Overflow] without
    buffering the remainder, and the server severs the connection after
    answering. *)

type request =
  | Compile of {
      id : string;
      file : string;  (** diagnostic label and injector-derivation tag *)
      source : string;
      config : Ompgpu_api.Config.t;
      tenant : string option;
          (** admission-quota identity under the fleet router; the wire
              member is omitted (not [null]) when [None], so pre-fleet
              requests encode byte-identically *)
    }
  | Stats of { id : string }
  | Health of { id : string }
  | Fleet of { id : string }
  | Shutdown of { id : string }

type response =
  | Compiled of {
      id : string;
      op : string;  (** the request's op, echoed: ["compile"] or ["run"] *)
      result : Ompgpu_api.compiled;
    }
      (** Any settled compile — success, structured failure, or a shed
          request ([Overload], exit 40): the result's diagnostics are the
          exact bytes a one-shot [mompc] would print. *)
  | Stats_reply of { id : string; stats : Observe.Json.t }
  | Health_reply of { id : string; health : Observe.Json.t }
      (** Schema-2 health document; see {!Server.health_json} for the
          members. *)
  | Fleet_reply of { id : string; fleet : Observe.Json.t }
      (** Schema-2 fleet document: the ring layout plus one entry per
          shard (state, probe counters, per-shard stats).  Only the
          {!Router} produces it. *)
  | Shutdown_ack of { id : string }
  | Rejected of { id : string option; error : Fault.Ompgpu_error.t }
      (** A request the protocol layer could not accept: unparseable
          JSON, wrong version, unknown op, missing field. *)

val config_to_json : Ompgpu_api.Config.t -> Observe.Json.t
val config_of_json : Observe.Json.t -> (Ompgpu_api.Config.t, string) result
(** Omitted members take {!Ompgpu_api.Config.default}s, so a minimal
    request is [{"v":3,"id":"x","op":"compile","source":"..."}].  Unknown
    members are ignored, except the retired ["optimize"]/["disable"],
    which are an [Error] naming ["pipeline"]. *)

val request_to_json : request -> Observe.Json.t
val request_of_json :
  Observe.Json.t -> (request, Fault.Ompgpu_error.t) result
(** Decoding failures are [Bad_request] taxonomy values whose message
    names the offending field. *)

val response_to_json : response -> Observe.Json.t
val response_of_json :
  Observe.Json.t -> (response, string) result

val read_frame :
  in_channel ->
  [ `Eof | `Line of string | `Overflow of Fault.Ompgpu_error.t ]
(** Read one newline-terminated line, raw: the framing (and the limits) of
    {!read_message} without decoding, for relays that must forward the
    original bytes.  [`Line] also covers EOF mid-frame (the torn bytes);
    [`Overflow] carries the [Bad_request] to answer before severing. *)

val read_message :
  in_channel ->
  [ `Eof
  | `Msg of (Observe.Json.t, Fault.Ompgpu_error.t) result
  | `Overflow of Fault.Ompgpu_error.t ]
(** Read one newline-terminated JSON message.  Never raises on hostile
    input: end of stream is [`Eof], a line over {!max_frame_bytes} is
    [`Overflow] (the remainder of the line is left unread — close the
    connection), and a torn or garbage line (including EOF mid-frame) is
    [`Msg (Error bad_request)]. *)

val write_line : out_channel -> string -> unit
(** Write one line (the newline is appended) and flush. *)

val write_message : out_channel -> Observe.Json.t -> unit
(** Write one minified JSON line and flush. *)
