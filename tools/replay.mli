(** The conformance corpus replayed through a live [mompd] or a fleet
    router (docs/CONFORMANCE.md): the serving path must return exactly
    the bytes in-process {!Ompgpu_api.compile_buffered} produces.

    Servers boot inside the calling process, each in a fresh private
    directory under the temp dir that teardown removes.  A caller that
    stops shards under traffic must ignore SIGPIPE itself. *)

(** {1 Jobs} *)

type job = { file : string; config : Ompgpu_api.Config.t; src : string }

val jobs : ?tier:bool -> root:int64 -> n:int -> unit -> job array
(** Programs [0 .. n-1] of the corpus drawn from [root] under every
    matrix cell.  [~tier:true] keeps only the tier-eligible slice: the
    [Full] cells, compiled to IR with no simulation. *)

val expected : job array -> Ompgpu_api.compiled array
(** Each job compiled in-process: the bytes every answer must equal. *)

(** {1 The pass and the tally} *)

type pass = {
  answers : (Ompgpu_api.compiled, Fault.Ompgpu_error.t) result option array;
      (** by job index; [None] if the job was never answered *)
  latency_s : float array;  (** each request's round trip *)
  seconds : float;  (** the whole pass *)
}

val pass :
  ?taken:int Atomic.t ->
  connections:int ->
  socket_path:string ->
  job array ->
  pass
(** Drain the jobs over [connections] resilient {!Service.Client}
    sessions, timing each request and the pass on the monotonic clock.
    [taken] is the shared queue head (it must start at 0): a thread
    watching it sees how far the pass has got. *)

val percentile_ms : pass -> float -> float
(** Nearest-rank latency percentile, in milliseconds. *)

type tally = {
  mismatched : int list;
      (** jobs answered with other bytes (exit code, output or
          diagnostics), in job order *)
  errors : int;  (** jobs the sessions could not get answered *)
}

val tally : expected:Ompgpu_api.compiled array -> pass -> tally

val identical : job array -> tally list -> bool
(** Every tallied job answered with the expected bytes.  Names the
    first mismatched job of each tally on stderr. *)

(** {1 Servers} *)

val with_temp_dir : string -> (string -> 'a) -> 'a
(** [f] in a fresh directory under the temp dir, removed with all it
    holds when [f] returns or raises. *)

val with_daemon : ?tiered:bool -> domains:int -> (string -> 'a) -> 'a
(** [f socket_path] against a [mompd] on a private socket, stopped and
    drained when [f] returns or raises. *)

val with_fleet :
  shards:int ->
  domains:int ->
  (socket_path:string -> backends:Service.Router.backend list -> 'a) ->
  'a
(** [f] against a router fronting [shards] in-process supervised shards
    that share one disk cache, all stopped when [f] returns or raises. *)

val fleet_doc : string -> Observe.Json.t
(** The router's [fleet] document ([Obj []] if it cannot be fetched). *)

val int_at : string list -> Observe.Json.t -> int
(** The integer at a member path, 0 when absent. *)

val shard_sum : string list -> Observe.Json.t -> int
(** {!int_at} summed over a fleet document's shard entries. *)

(** {1 Replays}

    Each returns its schema-stamped section of [BENCH_observe.json]. *)

val daemon :
  connections:int -> domains:int -> root:int64 -> n:int -> Observe.Json.t
(** The ["corpus"] section: every job through a daemon, cold then warm. *)

val fleet :
  connections:int ->
  shards:int ->
  domains:int ->
  root:int64 ->
  n:int ->
  Observe.Json.t
(** One entry of the ["fleet"] section's ["scaling"] list: {!daemon}
    through a fleet, plus its failovers, fallbacks and the share of warm
    answers served from a shard's in-memory cache. *)

val tiers :
  connections:int -> domains:int -> root:int64 -> n:int -> Observe.Json.t
(** The ["tiers"] section: the tier slice through an untiered and a
    tiered daemon, cold then warm; the tiered daemon's upgrade queue is
    drained before its warm pass, which must then equal one-shot
    full-pipeline compiles. *)

val byte_identical : Observe.Json.t -> bool
(** A section's verdict. *)

val summary : Observe.Json.t -> string
(** A section's members on one line, for the console. *)
