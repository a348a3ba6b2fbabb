(** The differential conformance matrix.

    Every corpus program is compiled and simulated — through the
    {!Ompgpu_api} facade, so the daemon path shares the exact bytes —
    under every cell of

    {v {Simplified, Legacy, Cuda} x {generic, SPMD} x {O0, full pipeline} v}

    and each cell's observable behavior (the host-traced final contents
    of the [A]/[B] arrays, i.e. final memory, plus the exit code; the
    ledger records its checksum) is compared against the in-mode
    reference cell [Simplified x mode x O0].  A differing cell is either
    a {e known divergence} — a documented unsoundness of the modeled
    compiler era, classified by {!classify} — or a conformance failure,
    which the runner shrinks to a minimal reproducer. *)

type pipeline = O0 | Full

val pipelines : pipeline list
val pipeline_name : pipeline -> string

val schemes : Ompgpu_api.Scheme.scheme list
(** [[Simplified; Legacy; Cuda]], the matrix order. *)

type cell = {
  scheme : Ompgpu_api.Scheme.scheme;
  mode : Gen.mode;
  pipeline : pipeline;
}

val cells : cell list
(** All 12 cells, mode-major then scheme then pipeline — ledger order. *)

val cell_name : cell -> string
(** ["legacy/spmd/full"] — the ledger's cell syntax. *)

val cell_of_name : string -> cell option

val config_of_cell :
  ?pipeline:Ompgpu_api.Pipeline.t -> cell -> Ompgpu_api.Config.t
(** The facade config a cell compiles under: the cell's scheme,
    [pipeline] (default [Pipeline.full]) for [Full] (none for [O0]),
    simulation on, IR emission off.  Also what the daemon replay
    ([tools/replay.ml]) sends.  An explicit [pipeline] stands in for the
    [Full] cells — [conformance --pipeline fast] replays the matrix with
    the fast tier in the optimized column; [O0] cells are unaffected. *)

val classify : cell -> Gen.prog -> string option
(** [Some class_id] when a divergence in this cell is a documented
    unsoundness of the modeled era (docs/CONFORMANCE.md):
    - ["legacy-spmd-escape"]: the legacy SPMD fast path skips
      globalization, so a Figure-3 escape reads thread-private storage;
    - ["cuda-escape"]: CUDA semantics have no globalization at all, so
      the same escape reads private storage in either mode.
    [None] means a divergence here is a bug. *)

(** One cell's outcome.  [Known]/[Fail] carry the observation checksums
    (reference first). *)
type verdict =
  | Pass
  | Known of { cls : string; obs : string; ref_ : string }
  | Fail of { obs : string; ref_ : string; detail : string }

type cell_result = { cell : cell; verdict : verdict }

type program_result = {
  index : int;  (** position in the corpus: seed = [program_stream ~root i] *)
  prog : Gen.prog;
  cells : cell_result list;  (** in {!cells} order *)
}

val observe : ?pipeline:Ompgpu_api.Pipeline.t -> cell -> Gen.prog -> string
(** The cell's observation string: ["exit:N|<trace line>"], compiled
    in-process by {!Ompgpu_api.compile_buffered}.  [?pipeline] is
    threaded to {!config_of_cell}. *)

val run :
  ?pipeline:Ompgpu_api.Pipeline.t ->
  ?on_program:(program_result -> unit) ->
  root:int64 ->
  n:int ->
  unit ->
  program_result list
(** The corpus: programs [0 .. n-1] drawn from [root], each run through
    every cell; [?pipeline] replays the optimized column under an
    explicit pipeline (the divergence licenses in {!classify} are keyed
    on scheme/mode/program only, so they still apply).  [on_program]
    fires after each program (progress). *)

val shrink_failure :
  ?pipeline:Ompgpu_api.Pipeline.t -> cell -> Gen.prog -> Gen.prog
(** Greedily minimize a program that [Fail]s in [cell] (under the same
    pipeline override the failing run used), re-checking the cell at
    every candidate; returns the fixpoint. *)

val failures : program_result list -> (program_result * cell_result) list
(** Every unexplained divergence, in corpus order. *)
