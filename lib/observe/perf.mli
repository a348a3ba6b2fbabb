(** Phase-level profiling: wall time and allocation words per semantic
    stack frame, exported as folded stacks (flamegraph input) and a
    schema-stamped per-phase summary.  The collector is safe to share
    across pool domains; recording costs two clock reads and one
    [Gc.quick_stat] per phase (see docs/PERF.md). *)

type t

val create : unit -> t

val record : t -> stack:string list -> (unit -> 'a) -> 'a
(** Run the thunk, append one sample tagged [stack] with its elapsed
    seconds on the monotonic clock and the minor-heap words it allocated
    on this domain.  A raising
    thunk is still attributed before the exception propagates. *)

val folded : value:[ `Time_us | `Alloc_words ] -> t -> string
(** Samples aggregated by stack in first-appearance order, one
    ["frame;frame COUNT\n"] line each — the folded-stacks text format
    flamegraph.pl and speedscope consume.  Counts are microseconds
    ([`Time_us]) or allocation words ([`Alloc_words]). *)

val to_json : t -> Json.t
(** Schema-stamped per-phase totals (seconds, allocation words, sample
    count), aggregated by leaf frame. *)
