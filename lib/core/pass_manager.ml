(* The OpenMPOpt pass driver.

   Mirrors the paper's pipeline: aggressive internalization first (module
   pass, "run early on the entire module"), then rounds of deglobalization,
   SPMDzation, state-machine rewriting, runtime-call folding, and generic
   cleanup ("run ... again late on each strongly connected component"; our
   rounds iterate the whole module, which subsumes the SCC scheduling at our
   module sizes).

   What runs is chosen by a pipeline.  The paper artifact's
   openmp-opt-disable-{spmdization, deglobalization, state-machine-rewrite,
   folding} flags are pipelines with the matching passes left out (mompc
   builds them that way). *)

(* Pipelines.

   A pipeline is a named, ordered list of pass descriptors plus a round
   count and the two behavior flags that parameterize individual passes
   (Fig. 7 guard grouping, HeapToShared).  The textual syntax is stable and
   part of the public surface (mompc --pipeline, protocol v3's "pipeline"
   member, cache keys):

     spec   ::= builtin | [name "="] passes ["@" rounds] flag*
     passes ::= pass ("," pass)*
     flag   ::= "!nogroup" | "!noshared"

   e.g. "fast=internalize,fold,cleanup@1".  A bare builtin name ("fast",
   "full") denotes that tier. *)
module Pipeline = struct
  type pass =
    | Internalize
    | Fold  (* mode-invariant folds + a simplify sweep, the "early" block *)
    | Deglobalize
    | Spmdize
    | State_machine
    | Fold_late  (* execution-mode folds *)
    | Dedup
    | Dead_regions
    | Cleanup  (* generic simplify *)

  let all_passes =
    [
      Internalize;
      Fold;
      Deglobalize;
      Spmdize;
      State_machine;
      Fold_late;
      Dedup;
      Dead_regions;
      Cleanup;
    ]

  let pass_name = function
    | Internalize -> "internalize"
    | Fold -> "fold"
    | Deglobalize -> "deglobalize"
    | Spmdize -> "spmdize"
    | State_machine -> "state-machine"
    | Fold_late -> "fold-late"
    | Dedup -> "dedup"
    | Dead_regions -> "dead-regions"
    | Cleanup -> "cleanup"

  let pass_of_name s = List.find_opt (fun p -> pass_name p = s) all_passes

  type t = {
    name : string;
    passes : pass list;
    rounds : int;
    grouping : bool;  (* Fig. 7 side-effect grouping during SPMDzation *)
    heap_to_shared : bool;  (* HeapToShared on during deglobalization *)
  }

  let max_rounds = 16

  let full =
    {
      name = "full";
      passes = all_passes;
      rounds = 3;
      grouping = true;
      heap_to_shared = true;
    }

  let fast =
    {
      name = "fast";
      passes = [ Internalize; Fold; Cleanup ];
      rounds = 1;
      grouping = true;
      heap_to_shared = true;
    }

  let builtins = [ ("fast", fast); ("full", full) ]
  let find name = List.assoc_opt name builtins

  (* Semantic identity: everything but the name.  Two pipelines that agree
     here run the exact same pass sequence and produce the same bytes. *)
  let same_semantics a b =
    a.passes = b.passes && a.rounds = b.rounds && a.grouping = b.grouping
    && a.heap_to_shared = b.heap_to_shared

  let equal a b = a.name = b.name && same_semantics a b

  (* the spec body — everything after "name=" — doubles as the semantic
     fingerprint, so it must cover every field except the name *)
  let spec_body p =
    let passes = String.concat "," (List.map pass_name p.passes) in
    let flags =
      (if p.grouping then "" else "!nogroup")
      ^ if p.heap_to_shared then "" else "!noshared"
    in
    Printf.sprintf "%s@%d%s" passes p.rounds flags

  let to_string p = p.name ^ "=" ^ spec_body p
  let fingerprint p = "pipeline:" ^ spec_body p

  let valid_name s =
    String.length s > 0
    && String.for_all
         (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> true | _ -> false)
         s

  let of_string s =
    let trim = String.trim in
    let s = trim s in
    match find s with
    | Some p -> Ok p
    | None -> (
      let ( let* ) = Result.bind in
      let name, body =
        match String.index_opt s '=' with
        | Some i ->
          (trim (String.sub s 0 i), trim (String.sub s (i + 1) (String.length s - i - 1)))
        | None -> ("custom", s)
      in
      let* () =
        if valid_name name then Ok ()
        else Error (Printf.sprintf "invalid pipeline name %S" name)
      in
      (* split off "!flag" suffixes *)
      let body, flags =
        match String.split_on_char '!' body with
        | [] -> ("", [])
        | b :: fs -> (trim b, List.map trim fs)
      in
      let* grouping, heap_to_shared =
        List.fold_left
          (fun acc flag ->
            let* g, h = acc in
            match flag with
            | "nogroup" -> Ok (false, h)
            | "noshared" -> Ok (g, false)
            | f -> Error (Printf.sprintf "unknown pipeline flag %S" ("!" ^ f)))
          (Ok (true, true))
          flags
      in
      let body, rounds_s =
        match String.index_opt body '@' with
        | Some i ->
          ( trim (String.sub body 0 i),
            Some (trim (String.sub body (i + 1) (String.length body - i - 1))) )
        | None -> (body, None)
      in
      let* rounds =
        match rounds_s with
        | None -> Ok 1
        | Some r -> (
          match int_of_string_opt r with
          | Some n when n >= 1 && n <= max_rounds -> Ok n
          | Some n ->
            Error (Printf.sprintf "pipeline rounds %d out of range 1..%d" n max_rounds)
          | None -> Error (Printf.sprintf "invalid pipeline round count %S" r))
      in
      let* passes =
        match String.split_on_char ',' body with
        | [ "" ] -> Error "empty pipeline (no passes)"
        | names ->
          List.fold_left
            (fun acc n ->
              let* ps = acc in
              let n = trim n in
              match pass_of_name n with
              | Some p -> Ok (p :: ps)
              | None ->
                Error
                  (Printf.sprintf "unknown pass %S (known: %s)" n
                     (String.concat ", " (List.map pass_name all_passes))))
            (Ok []) names
          |> Result.map List.rev
      in
      Ok { name; passes; rounds; grouping; heap_to_shared })
end

type report = {
  remarks : Remark.t list;
  internalized : int;
  heap_to_stack : int;
  heap_to_shared : int;
  shared_bytes : int;
  spmdized : int;
  guards : int;
  custom_state_machines : int;
  csm_fallbacks : int;
  folds_exec_mode : int;
  folds_parallel_level : int;
  folds_thread_exec : int;
  folds_launch_bounds : int;
  deduplicated_calls : int;
  dead_regions : int;
}

let empty_report =
  {
    remarks = [];
    internalized = 0;
    heap_to_stack = 0;
    heap_to_shared = 0;
    shared_bytes = 0;
    spmdized = 0;
    guards = 0;
    custom_state_machines = 0;
    csm_fallbacks = 0;
    folds_exec_mode = 0;
    folds_parallel_level = 0;
    folds_thread_exec = 0;
    folds_launch_bounds = 0;
    deduplicated_calls = 0;
    dead_regions = 0;
  }

(* The int fields of the report, as named counters.  Order is stable; the
   trace layer diffs two of these lists to get per-pass increments, and the
   JSON export reuses the names as keys. *)
let counters_of_report (r : report) =
  [
    ("internalized", r.internalized);
    ("heap_to_stack", r.heap_to_stack);
    ("heap_to_shared", r.heap_to_shared);
    ("shared_bytes", r.shared_bytes);
    ("spmdized", r.spmdized);
    ("guards", r.guards);
    ("custom_state_machines", r.custom_state_machines);
    ("csm_fallbacks", r.csm_fallbacks);
    ("folds_exec_mode", r.folds_exec_mode);
    ("folds_parallel_level", r.folds_parallel_level);
    ("folds_thread_exec", r.folds_thread_exec);
    ("folds_launch_bounds", r.folds_launch_bounds);
    ("deduplicated_calls", r.deduplicated_calls);
    ("dead_regions", r.dead_regions);
  ]

let report_to_json (r : report) =
  let kind_name = function
    | Remark.Passed -> "passed"
    | Remark.Missed -> "missed"
    | Remark.Analysis -> "analysis"
  in
  Observe.Json.Obj
    (List.map (fun (k, v) -> (k, Observe.Json.Int v)) (counters_of_report r)
    @ [
        ( "remarks",
          Observe.Json.List
            (List.map
               (fun (rm : Remark.t) ->
                 Observe.Json.Obj
                   [
                     ("id", Observe.Json.Int rm.Remark.id);
                     ("kind", Observe.Json.String (kind_name rm.Remark.kind));
                     ("func", Observe.Json.String rm.Remark.func);
                     ( "loc",
                       Observe.Json.String (Support.Loc.to_string rm.Remark.loc) );
                     ("message", Observe.Json.String rm.Remark.message);
                   ])
               r.remarks) );
      ])

let pp_report ppf r =
  Fmt.pf ppf
    "internalized=%d h2s=%d h2shared=%d(%dB) spmdized=%d(guards=%d) csm=%d(fallback=%d) \
     folds: em=%d pl=%d te=%d launch=%d, %d remarks"
    r.internalized r.heap_to_stack r.heap_to_shared r.shared_bytes r.spmdized r.guards
    r.custom_state_machines r.csm_fallbacks r.folds_exec_mode r.folds_parallel_level
    r.folds_thread_exec r.folds_launch_bounds (List.length r.remarks);
  if r.deduplicated_calls > 0 || r.dead_regions > 0 then
    Fmt.pf ppf " dedup=%d dead-regions=%d" r.deduplicated_calls r.dead_regions

(* OMP100: calls to __kmpc-prefixed functions the registry does not know
   are either a runtime version mismatch or a user error; flag them, since
   every analysis must treat them as opaque. *)
let flag_unknown_runtime_calls (m : Ir.Irmod.t) (sink : Remark.sink) =
  List.iter
    (fun f ->
      Ir.Func.iter_instrs f ~g:(fun _ i ->
          match i.Ir.Instr.kind with
          | Ir.Instr.Call (_, Ir.Instr.Direct name, _)
            when String.length name >= 7
                 && String.sub name 0 7 = "__kmpc_"
                 && not (Devrt.Registry.is_runtime_fn name) ->
            Remark.emit sink
              (Remark.make ~kind:Remark.Analysis ~loc:i.Ir.Instr.loc ~func:f.Ir.Func.name
                 100 ~detail:("@" ^ name))
          | _ -> ()))
    (Ir.Irmod.defined_funcs m)

let run_pipeline ?(pipeline = Pipeline.full) ?(injector = Fault.Injector.none) ?trace
    (m : Ir.Irmod.t) : report =
  (* Every mutable artifact of one pipeline run — the remark sink, the
     counter record and the optional trace — is local to this invocation (or
     owned by the job that passes the trace), never module-level state:
     the batch scheduler runs many pipelines concurrently on separate
     domains and their remarks/counters must not bleed into each other. *)
  let sink = Remark.sink () in
  let report = ref empty_report in
  (* Wrap one pass invocation: when a trace is attached, snapshot the module
     and the counters around [f] and record the deltas as one event.  The
     analyses a pass recomputes run inside the window, so the event's time
     includes them (that is the cost the pipeline actually pays). *)
  let instrument ~round ~pass f =
    (* the Pass_crash fault site lives here so every executed pass — traced
       or not — is a potential crash point with a precise (pass, round) id *)
    let f () =
      if Fault.Injector.fire injector Fault.Injector.Pass_crash then
        Fault.Ompgpu_error.raise_error
          (Fault.Ompgpu_error.Pass_crash { pass; round })
          ~phase:Fault.Ompgpu_error.Optimizing
          "injected crash in pass %s (round %d)" pass round;
      f ()
    in
    match trace with
    | None -> f ()
    | Some tr ->
      let before = Observe.Trace.snapshot m in
      let c0 = counters_of_report !report in
      let remarks0 = List.length (Remark.all sink) in
      (* wall time of this pass alone: a process CPU clock would also count
         every other domain's work while the pass runs *)
      let t0 = Monotonic_clock.now () in
      f ();
      let time_s = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9 in
      let after = Observe.Trace.snapshot m in
      let counters =
        List.map2
          (fun (k, old_v) (_, new_v) -> (k, new_v - old_v))
          c0 (counters_of_report !report)
        @ [ ("remarks", List.length (Remark.all sink) - remarks0) ]
      in
      ignore (Observe.Trace.record_pass tr ~round ~pass ~time_s ~before ~after ~counters)
  in
  flag_unknown_runtime_calls m sink;
  (* Internalization is a module pass that runs once before round 1 ("run
     early on the entire module"), wherever it appears in the pass list. *)
  if List.mem Pipeline.Internalize pipeline.Pipeline.passes then
    instrument ~round:0 ~pass:Internalize.pass_name (fun () ->
        report := { !report with internalized = Internalize.run m sink });
  let add_folds counts =
    report :=
      {
        !report with
        folds_exec_mode = !report.folds_exec_mode + counts.Fold.exec_mode;
        folds_parallel_level = !report.folds_parallel_level + counts.Fold.parallel_level;
        folds_thread_exec = !report.folds_thread_exec + counts.Fold.thread_exec;
        folds_launch_bounds = !report.folds_launch_bounds + counts.Fold.launch_bounds;
      }
  in
  for round = 1 to pipeline.Pipeline.rounds do
    (* domains are recomputed per pass: deglobalization changes instructions *)
    let domains () =
      let cg = Analysis.Callgraph.compute m in
      Analysis.Exec_domain.compute m cg
    in
    let instrument ~pass f = instrument ~round ~pass f in
    let exec : Pipeline.pass -> unit = function
      | Pipeline.Internalize -> ()  (* ran once at round 0 *)
      (* mode-invariant folds first: pruning the sequential fallbacks before
         deglobalization avoids double-counted allocation sites; the sweep
         ends with a simplify so later passes see canonical IR *)
      | Pipeline.Fold ->
        instrument ~pass:(Fold.pass_name ^ "-early") (fun () ->
            add_folds (Fold.run ~fold_exec_mode:false m (domains ())));
        instrument ~pass:Simplify.pass_name (fun () -> ignore (Simplify.run m))
      | Pipeline.Deglobalize ->
        instrument ~pass:Deglobalize.pass_name (fun () ->
            let res =
              Deglobalize.run m (domains ()) sink
                ~heap_to_shared:pipeline.Pipeline.heap_to_shared
            in
            report :=
              {
                !report with
                heap_to_stack = !report.heap_to_stack + res.Deglobalize.to_stack;
                heap_to_shared = !report.heap_to_shared + res.Deglobalize.to_shared;
                shared_bytes = !report.shared_bytes + res.Deglobalize.shared_bytes;
              })
      | Pipeline.Spmdize ->
        instrument ~pass:Spmdization.pass_name (fun () ->
            let converted, guards =
              Spmdization.run m (domains ()) sink ~grouping:pipeline.Pipeline.grouping
            in
            report :=
              {
                !report with
                spmdized = !report.spmdized + converted;
                guards = !report.guards + guards;
              })
      | Pipeline.State_machine ->
        instrument ~pass:State_machine.pass_name (fun () ->
            let rewritten, fallbacks = State_machine.run m sink in
            report :=
              {
                !report with
                custom_state_machines = !report.custom_state_machines + rewritten;
                csm_fallbacks = !report.csm_fallbacks + fallbacks;
              })
      | Pipeline.Fold_late ->
        instrument ~pass:(Fold.pass_name ^ "-late") (fun () ->
            add_folds (Fold.run ~fold_exec_mode:true m (domains ())))
      (* deduplicate surviving runtime queries and drop effect-free regions *)
      | Pipeline.Dedup ->
        instrument ~pass:Dedup.pass_name (fun () ->
            let deduped = Dedup.dedup_runtime_calls m sink in
            report :=
              { !report with deduplicated_calls = !report.deduplicated_calls + deduped })
      | Pipeline.Dead_regions ->
        instrument ~pass:"dead-regions" (fun () ->
            let dead = Dedup.delete_dead_regions m sink in
            report := { !report with dead_regions = !report.dead_regions + dead })
      | Pipeline.Cleanup ->
        instrument ~pass:Simplify.pass_name (fun () -> ignore (Simplify.run m))
    in
    List.iter exec pipeline.Pipeline.passes
  done;
  (* analyses re-run each round and re-emit the same findings: dedupe *)
  let remarks =
    List.sort_uniq
      (fun (a : Remark.t) b ->
        compare
          (a.Remark.id, a.Remark.func, Support.Loc.to_string a.Remark.loc, a.Remark.message)
          (b.Remark.id, b.Remark.func, Support.Loc.to_string b.Remark.loc, b.Remark.message))
      (Remark.all sink)
  in
  { !report with remarks }
