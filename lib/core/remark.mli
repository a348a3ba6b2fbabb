(** Optimization remarks (paper Section IV-D, Figure 8).

    Remarks carry the OMP1xx identifiers of the upstream implementation;
    [Passed] remarks report performed transformations, [Missed] ones are
    actionable missed opportunities (their messages include the suggested
    source change, e.g. the [ext_spmd_amenable] assumption), and
    [Analysis] remarks add supporting detail. *)

type kind = Passed | Missed | Analysis

type t = {
  id : int;  (** e.g. 110 for OMP110 *)
  kind : kind;
  loc : Support.Loc.t;
  func : string;  (** enclosing function *)
  message : string;
}

val registry : (int * string) list
(** All known remark identifiers with their one-line descriptions. *)

val description : int -> string
(** Description for an id; ["Unknown remark."] for ids outside the registry. *)

val make :
  ?kind:kind -> ?loc:Support.Loc.t -> func:string -> ?detail:string -> int -> t
(** [make ~func id] builds a remark from the registry description; [detail]
    is appended in parentheses (e.g. the capture reason, or a byte count). *)

val pp : Format.formatter -> t -> unit
(** Clang-style rendering:
    [file:line:col: remark: ... \[OMP110\] \[-Rpass=openmp-opt\] (in f)]. *)

val to_string : t -> string

(** A mutable collector threaded through the passes.

    Ownership contract (domain safety): a sink belongs to exactly one
    pipeline run — create a fresh one per job and never share a sink
    between concurrent [Pass_manager.run_pipeline] invocations.  There is
    deliberately no module-level default sink. *)
type sink

val sink : unit -> sink
val emit : sink -> t -> unit
val all : sink -> t list
(** Remarks in emission order. *)

val count : ?id:int -> ?kind:kind -> sink -> int
(** Number of collected remarks matching the given filters. *)
