(* The differential matrix (see the .mli).  All compilation goes through
   Ompgpu_api.compile_buffered, so the in-process runner, the daemon
   replay and mompc one-shots are byte-identical by construction. *)

module Api = Ompgpu_api

type pipeline = O0 | Full

let pipelines = [ O0; Full ]
let pipeline_name = function O0 -> "O0" | Full -> "full"

let schemes =
  [ Frontend.Codegen.Simplified; Frontend.Codegen.Legacy; Frontend.Codegen.Cuda ]

type cell = {
  scheme : Frontend.Codegen.scheme;
  mode : Gen.mode;
  pipeline : pipeline;
}

let cells =
  List.concat_map
    (fun mode ->
      List.concat_map
        (fun scheme ->
          List.map (fun pipeline -> { scheme; mode; pipeline }) pipelines)
        schemes)
    Gen.modes

let cell_name c =
  Printf.sprintf "%s/%s/%s"
    (Frontend.Codegen.scheme_name c.scheme)
    (Gen.mode_name c.mode) (pipeline_name c.pipeline)

let cell_of_name s =
  List.find_opt (fun c -> String.equal (cell_name c) s) cells

let config_of_cell ?(pipeline = Api.Pipeline.full) c =
  {
    Api.Config.default with
    Api.Config.scheme = c.scheme;
    (* an explicit pipeline replaces the Full cells' pass pipeline:
       `conformance --pipeline fast` replays the matrix with the fast tier
       standing in for the full one.  O0 cells are untouched — they are
       the unoptimized reference column. *)
    pipeline = (match c.pipeline with O0 -> None | Full -> Some pipeline);
    run_sim = true;
    emit_ir = false;
  }

(* The documented unsoundness classes (docs/CONFORMANCE.md).  A class is
   a *license* for a cell to diverge, not a prediction that it will: an
   escape whose published value happens to match the private copies
   passes, and that is fine. *)
let classify c prog =
  match (c.scheme, c.mode) with
  | Frontend.Codegen.Legacy, Gen.Spmd when Gen.has_escape prog ->
    Some "legacy-spmd-escape"
  | Frontend.Codegen.Cuda, Gen.Spmd when Gen.has_escape prog -> Some "cuda-escape"
  | Frontend.Codegen.Cuda, _ when Gen.has_nested prog ->
    (* raw CUDA semantics cannot serialize nested OpenMP worksharing:
       the inner loop splits over team threads (wrong trip counts in
       generic mode) and its join barrier deadlocks when the outer
       distribution is uneven (SPMD mode) *)
    Some "cuda-nested-worksharing"
  | _ -> None

type verdict =
  | Pass
  | Known of { cls : string; obs : string; ref_ : string }
  | Fail of { obs : string; ref_ : string; detail : string }

type cell_result = { cell : cell; verdict : verdict }
type program_result = { index : int; prog : Gen.prog; cells : cell_result list }

(* ------------------------------------------------------------------ *)
(* Observation                                                         *)
(* ------------------------------------------------------------------ *)

(* The observable of one cell: exit code plus the simulator trace line
   (the host traces all of A and B after the kernel, so this is the final
   memory).  A failing cell observes its structured error line — the
   taxonomy rendering, not the full diagnostics, which carry cell-varying
   noise (optimizer remarks) that would make two identically-failing
   cells look different. *)
let observation_of_compiled (r : Api.compiled) =
  let lines l = String.split_on_char '\n' l in
  let has_prefix p l = String.length l >= String.length p && String.equal (String.sub l 0 (String.length p)) p in
  if r.Api.exit_code = 0 then
    match List.find_opt (has_prefix "; trace:") (lines r.Api.output) with
    | Some t -> Printf.sprintf "exit:0|%s" t
    | None -> "exit:0|<no trace>"
  else
    let err =
      match r.Api.error with
      | Some e -> Api.Error.to_string e
      | None -> String.trim r.Api.diagnostics
    in
    Printf.sprintf "exit:%d|%s" r.Api.exit_code err

(* every cell compiles under the same file name so that file-labeled
   diagnostics stay comparable across cells *)
let corpus_file = "corpus.c"

let observe ?pipeline cell prog =
  let src = Gen.render ~mode:cell.mode prog in
  observation_of_compiled
    (Api.compile_buffered ~config:(config_of_cell ?pipeline cell) ~file:corpus_file src)

let checksum obs = String.sub (Sched.Cache.key [ "corpus-obs"; obs ]) 0 12

let reference_cell mode =
  { scheme = Frontend.Codegen.Simplified; mode; pipeline = O0 }

let run_program ?pipeline ~index prog =
  let ref_obs mode = observe (reference_cell mode) prog in
  let refs = List.map (fun m -> (m, ref_obs m)) Gen.modes in
  let cells =
    List.map
      (fun cell ->
        let reference = List.assoc cell.mode refs in
        let obs =
          if cell = reference_cell cell.mode then reference
          else observe ?pipeline cell prog
        in
        let verdict =
          if String.equal obs reference then Pass
          else
            let obs_sum = checksum obs and ref_sum = checksum reference in
            match classify cell prog with
            | Some cls -> Known { cls; obs = obs_sum; ref_ = ref_sum }
            | None ->
              Fail
                {
                  obs = obs_sum;
                  ref_ = ref_sum;
                  detail = Printf.sprintf "got %s\nwant %s" obs reference;
                }
        in
        { cell; verdict })
      cells
  in
  { index; prog; cells }

let run ?pipeline ?(on_program = fun _ -> ()) ~root ~n () =
  List.init n (fun i ->
      let prog = Gen.generate (Gen.program_stream ~root i) in
      let r = run_program ?pipeline ~index:i prog in
      on_program r;
      r)

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

let still_fails ?pipeline cell prog =
  match classify cell prog with
  | Some _ -> false
  | None ->
    let reference = observe (reference_cell cell.mode) prog in
    not (String.equal (observe ?pipeline cell prog) reference)

exception Found of Gen.prog

let shrink_failure ?pipeline cell prog =
  let rec loop p =
    match
      Gen.shrink p (fun cand ->
          if still_fails ?pipeline cell cand then raise (Found cand))
    with
    | () -> p
    | exception Found cand -> loop cand
  in
  loop prog

let failures results =
  List.concat_map
    (fun r ->
      List.filter_map
        (fun cr ->
          match cr.verdict with Fail _ -> Some (r, cr) | Pass | Known _ -> None)
        r.cells)
    results
