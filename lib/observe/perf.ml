(* Phase-level profiling: wall time and allocation words per semantic
   stack frame, foldable into flamegraph input.

   A sample is one timed region tagged with a stack of labels — e.g.
   ["xsbench/dev"; "simulate"] — plus its elapsed seconds on the monotonic
   clock (bechamel's, as the pass trace uses) and the minor-heap words the
   region allocated on the recording domain.  Samples aggregate
   by stack into the classic folded-stacks text format (one
   "frame;frame;frame COUNT" line per stack), which flamegraph.pl,
   speedscope and inferno all consume directly; counts are microseconds
   for the time profile and words for the allocation profile.

   The collector is shared across pool domains: [record] runs the thunk
   unlocked (timing and Gc.minor_words are domain-local) and takes the
   mutex only to append, so profiling perturbs the measured batch by two
   clock reads and one Gc.quick_stat per phase. *)

type sample = { stack : string list; seconds : float; words : float }

type t = { mutex : Mutex.t; mutable samples : sample list }

let create () = { mutex = Mutex.create (); samples = [] }

let add t sample =
  Mutex.lock t.mutex;
  t.samples <- sample :: t.samples;
  Mutex.unlock t.mutex

let seconds_since t0 = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9

let record t ~stack f =
  let w0 = (Gc.quick_stat ()).Gc.minor_words in
  let t0 = Monotonic_clock.now () in
  match f () with
  | r ->
    let seconds = seconds_since t0 in
    let words = (Gc.quick_stat ()).Gc.minor_words -. w0 in
    add t { stack; seconds; words };
    r
  | exception e ->
    (* failed phases still cost time; attribute it before re-raising *)
    let seconds = seconds_since t0 in
    let words = (Gc.quick_stat ()).Gc.minor_words -. w0 in
    add t { stack; seconds; words };
    raise e

let samples t =
  Mutex.lock t.mutex;
  let s = List.rev t.samples in
  Mutex.unlock t.mutex;
  s

(* Aggregate samples by stack, preserving first-appearance order so the
   folded output is deterministic for a deterministic batch. *)
let aggregate ss =
  let table = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun { stack; seconds; words } ->
      let key = String.concat ";" stack in
      match Hashtbl.find_opt table key with
      | Some (s, w, n) -> Hashtbl.replace table key (s +. seconds, w +. words, n + 1)
      | None ->
        order := key :: !order;
        Hashtbl.add table key (seconds, words, 1))
    ss;
  List.rev_map (fun key -> (key, Hashtbl.find table key)) !order

let folded ~value t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (key, (seconds, words, _n)) ->
      let count =
        match value with
        | `Time_us -> int_of_float (seconds *. 1e6)
        | `Alloc_words -> int_of_float words
      in
      Buffer.add_string buf key;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int count);
      Buffer.add_char buf '\n')
    (aggregate (samples t));
  Buffer.contents buf

(* Totals per leaf frame (the last stack element): the per-phase summary
   the perf JSON exports — "simulate: 0.31s, 42M words" regardless of
   which job the sample came from. *)
let by_leaf t =
  let table = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun { stack; seconds; words } ->
      let leaf = match List.rev stack with [] -> "?" | leaf :: _ -> leaf in
      match Hashtbl.find_opt table leaf with
      | Some (s, w, n) -> Hashtbl.replace table leaf (s +. seconds, w +. words, n + 1)
      | None ->
        order := leaf :: !order;
        Hashtbl.add table leaf (seconds, words, 1))
    (samples t);
  List.rev_map (fun leaf -> (leaf, Hashtbl.find table leaf)) !order

let to_json t =
  Json.with_schema
    (Json.Obj
       [
         ( "phases",
           Json.List
             (List.map
                (fun (leaf, (seconds, words, n)) ->
                  Json.Obj
                    [
                      ("phase", Json.String leaf);
                      ("seconds", Json.Float seconds);
                      ("alloc_words", Json.Float words);
                      ("samples", Json.Int n);
                    ])
                (by_leaf t)) );
       ])
