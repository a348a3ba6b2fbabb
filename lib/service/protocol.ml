(* Wire protocol v3 (see the .mli and docs/API.md).

   v3 (api_version 3): the config object's optional "pipeline" member — a
   pipeline spec string (Pass_manager.Pipeline.of_string) — is the only
   way to select passes; absent means O0.  The v1/v2 "optimize"/"disable"
   members are rejected rather than ignored, so a stale client cannot be
   silently served unoptimized code. *)

module J = Observe.Json
module E = Fault.Ompgpu_error

let version = 3

type request =
  | Compile of {
      id : string;
      file : string;
      source : string;
      config : Ompgpu_api.Config.t;
      tenant : string option;
    }
  | Stats of { id : string }
  | Health of { id : string }
  | Fleet of { id : string }
  | Shutdown of { id : string }

type response =
  | Compiled of { id : string; op : string; result : Ompgpu_api.compiled }
  | Stats_reply of { id : string; stats : Observe.Json.t }
  | Health_reply of { id : string; health : Observe.Json.t }
  | Fleet_reply of { id : string; fleet : Observe.Json.t }
  | Shutdown_ack of { id : string }
  | Rejected of { id : string option; error : Fault.Ompgpu_error.t }

(* ------------------------------------------------------------------ *)
(* Config codec                                                        *)
(* ------------------------------------------------------------------ *)

let config_to_json (c : Ompgpu_api.Config.t) =
  J.Obj
    ([ ("scheme", J.String (Frontend.Codegen.scheme_name c.scheme)) ]
    (* the pipeline travels as its spec string, a builtin by its bare name
       (as short as the v2 toggles were); O0 omits the member *)
    @ (match c.pipeline with
      | Some p ->
        let module P = Openmpopt.Pass_manager.Pipeline in
        [ ("pipeline", J.String (if P.find p.name = Some p then p.name else P.to_string p)) ]
      | None -> [])
    @ [
        ("emit_ir", J.Bool c.emit_ir);
        ("run", J.Bool c.run_sim);
        ("remarks_only", J.Bool c.remarks_only);
        ("stats", J.Bool c.want_stats);
        ("trace", J.Bool c.print_trace);
        ( "inject",
          J.List
            (List.map
               (fun s -> J.String (Fault.Injector.spec_to_string s))
               c.inject) );
        ("retries", J.Int c.retries);
        ("backoff", J.Float c.backoff_s);
        ("backtrace", J.Bool c.backtraces);
      ])

let config_of_json j =
  let ( let* ) = Result.bind in
  let bool_member k default =
    match J.member k j with
    | None -> Ok default
    | Some (J.Bool b) -> Ok b
    | Some _ -> Error (Printf.sprintf "config.%s: expected a boolean" k)
  in
  let d = Ompgpu_api.Config.default in
  let* scheme =
    match J.member "scheme" j with
    | None -> Ok d.Ompgpu_api.Config.scheme
    | Some (J.String "simplified") -> Ok Frontend.Codegen.Simplified
    | Some (J.String "legacy") -> Ok Frontend.Codegen.Legacy
    | Some (J.String "cuda") -> Ok Frontend.Codegen.Cuda
    | Some _ -> Error "config.scheme: expected simplified|legacy|cuda"
  in
  (* unknown members are ignored, so the retired toggles must be refused
     by name: ignoring "optimize": true would compile at O0 without a word *)
  let* () =
    match List.find_opt (fun k -> J.member k j <> None) [ "optimize"; "disable" ] with
    | Some k ->
      Error
        (Printf.sprintf
           "config.%s: retired in protocol v%d; select passes with \"pipeline\" \
            (e.g. \"pipeline\": \"full\")"
           k version)
    | None -> Ok ()
  in
  let* pipeline =
    match J.member "pipeline" j with
    | None -> Ok None
    | Some (J.String s) -> (
      match Openmpopt.Pass_manager.Pipeline.of_string s with
      | Ok p -> Ok (Some p)
      | Error msg -> Error ("config.pipeline: " ^ msg))
    | Some _ -> Error "config.pipeline: expected a pipeline spec string"
  in
  let* emit_ir = bool_member "emit_ir" d.Ompgpu_api.Config.emit_ir in
  let* run_sim = bool_member "run" d.Ompgpu_api.Config.run_sim in
  let* remarks_only = bool_member "remarks_only" d.Ompgpu_api.Config.remarks_only in
  let* want_stats = bool_member "stats" d.Ompgpu_api.Config.want_stats in
  let* print_trace = bool_member "trace" d.Ompgpu_api.Config.print_trace in
  let* backtraces = bool_member "backtrace" d.Ompgpu_api.Config.backtraces in
  let* inject =
    match J.member "inject" j with
    | None -> Ok []
    | Some (J.List items) ->
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          match item with
          | J.String s -> (
            match Fault.Injector.parse_spec s with
            | Ok spec -> Ok (spec :: acc)
            | Error msg -> Error ("config.inject: " ^ msg))
          | _ -> Error "config.inject: expected a list of strings")
        (Ok []) items
      |> Result.map List.rev
    | Some _ -> Error "config.inject: expected a list of strings"
  in
  let* retries =
    match J.member "retries" j with
    | None -> Ok d.Ompgpu_api.Config.retries
    | Some (J.Int n) when n >= 0 -> Ok n
    | Some _ -> Error "config.retries: expected a non-negative integer"
  in
  let* backoff_s =
    match J.member "backoff" j with
    | None -> Ok d.Ompgpu_api.Config.backoff_s
    | Some (J.Float f) when f >= 0. -> Ok f
    | Some (J.Int n) when n >= 0 -> Ok (float_of_int n)
    | Some _ -> Error "config.backoff: expected a non-negative number"
  in
  Ok
    {
      Ompgpu_api.Config.scheme;
      pipeline;
      emit_ir;
      run_sim;
      remarks_only;
      want_stats;
      print_trace;
      inject;
      retries;
      backoff_s;
      backtraces;
    }

(* ------------------------------------------------------------------ *)
(* Request codec                                                       *)
(* ------------------------------------------------------------------ *)

let bad_request fmt =
  Printf.ksprintf
    (fun message -> E.make E.Bad_request ~phase:E.Serving message)
    fmt

let request_to_json = function
  | Compile { id; file; source; config; tenant } ->
    let op = if config.Ompgpu_api.Config.run_sim then "run" else "compile" in
    J.Obj
      ([
         ("v", J.Int version);
         ("id", J.String id);
         ("op", J.String op);
         ("file", J.String file);
         ("source", J.String source);
         ("config", config_to_json config);
       ]
      (* the member is omitted entirely for the anonymous tenant, so
         pre-fleet requests stay byte-identical *)
      @ match tenant with Some t -> [ ("tenant", J.String t) ] | None -> [])
  | Stats { id } ->
    J.Obj [ ("v", J.Int version); ("id", J.String id); ("op", J.String "stats") ]
  | Health { id } ->
    J.Obj [ ("v", J.Int version); ("id", J.String id); ("op", J.String "health") ]
  | Fleet { id } ->
    J.Obj [ ("v", J.Int version); ("id", J.String id); ("op", J.String "fleet") ]
  | Shutdown { id } ->
    J.Obj
      [ ("v", J.Int version); ("id", J.String id); ("op", J.String "shutdown") ]

let request_of_json j =
  match J.member "v" j with
  | Some (J.Int v) when v = version -> (
    match Option.bind (J.member "id" j) J.to_str with
    | None -> Error (bad_request "request without a string \"id\"")
    | Some id -> (
      match Option.bind (J.member "op" j) J.to_str with
      | None -> Error (bad_request "request without a string \"op\"")
      | Some (("compile" | "run") as op) -> (
        match Option.bind (J.member "source" j) J.to_str with
        | None -> Error (bad_request "%s request without a string \"source\"" op)
        | Some source -> (
          let file =
            Option.value
              (Option.bind (J.member "file" j) J.to_str)
              ~default:"<service>"
          in
          match
            ( config_of_json
                (Option.value (J.member "config" j) ~default:(J.Obj [])),
              match J.member "tenant" j with
              | None -> Ok None
              | Some (J.String t) -> Ok (Some t)
              | Some _ -> Error "tenant: expected a string" )
          with
          | Error msg, _ | _, Error msg -> Error (bad_request "%s" msg)
          | Ok config, Ok tenant ->
            let config =
              if op = "run" then { config with Ompgpu_api.Config.run_sim = true }
              else config
            in
            Ok (Compile { id; file; source; config; tenant })))
      | Some "stats" -> Ok (Stats { id })
      | Some "health" -> Ok (Health { id })
      | Some "fleet" -> Ok (Fleet { id })
      | Some "shutdown" -> Ok (Shutdown { id })
      | Some op -> Error (bad_request "unknown op %S" op)))
  | Some (J.Int v) ->
    Error (bad_request "unsupported protocol version %d (this server speaks %d)" v version)
  | _ -> Error (bad_request "request without an integer \"v\"")

(* ------------------------------------------------------------------ *)
(* Response codec                                                      *)
(* ------------------------------------------------------------------ *)

let response_to_json = function
  | Compiled { id; op; result } ->
    J.Obj
      ([
         ("v", J.Int version);
         ("id", J.String id);
         ("op", J.String op);
         ("ok", J.Bool (result.Ompgpu_api.exit_code = 0));
         ("exit_code", J.Int result.Ompgpu_api.exit_code);
         ("output", J.String result.Ompgpu_api.output);
         ("diagnostics", J.String result.Ompgpu_api.diagnostics);
       ]
      @ (match result.Ompgpu_api.error with
        | Some e -> [ ("error", E.to_json e) ]
        | None -> [])
      @
      match result.Ompgpu_api.stats with
      | Some s -> [ ("stats", s) ]
      | None -> [])
  | Stats_reply { id; stats } ->
    J.Obj
      [
        ("v", J.Int version);
        ("id", J.String id);
        ("op", J.String "stats");
        ("ok", J.Bool true);
        ("stats", stats);
      ]
  | Health_reply { id; health } ->
    J.Obj
      [
        ("v", J.Int version);
        ("id", J.String id);
        ("op", J.String "health");
        ("ok", J.Bool true);
        ("health", health);
      ]
  | Fleet_reply { id; fleet } ->
    J.Obj
      [
        ("v", J.Int version);
        ("id", J.String id);
        ("op", J.String "fleet");
        ("ok", J.Bool true);
        ("fleet", fleet);
      ]
  | Shutdown_ack { id } ->
    J.Obj
      [
        ("v", J.Int version);
        ("id", J.String id);
        ("op", J.String "shutdown");
        ("ok", J.Bool true);
      ]
  | Rejected { id; error } ->
    J.Obj
      [
        ("v", J.Int version);
        ("id", match id with Some id -> J.String id | None -> J.Null);
        ("ok", J.Bool false);
        ("error", E.to_json error);
      ]

(* Rebuild the client-side view.  The error member round-trips as far as
   the client needs it: kind name, exit code and message (the precise
   variant payloads stay server-side). *)
let error_of_json j =
  let message =
    Option.value (Option.bind (J.member "message" j) J.to_str) ~default:""
  in
  let kind =
    match Option.bind (J.member "kind" j) J.to_str with
    | Some "overload" ->
      let geti k =
        Option.value (Option.bind (J.member k j) J.to_int) ~default:0
      in
      E.Overload { pending = geti "pending"; capacity = geti "capacity" }
    | Some "bad-request" -> E.Bad_request
    | Some "timeout" -> E.Timeout { seconds = 0. }
    | Some "oom" -> E.Oom
    | _ -> E.Internal
  in
  E.make kind ~phase:E.Serving message

let response_of_json j =
  match J.member "v" j with
  | Some (J.Int v) when v = version -> (
    let id = Option.bind (J.member "id" j) J.to_str in
    match Option.bind (J.member "op" j) J.to_str with
    | Some (("compile" | "run") as op) -> (
      match
        ( id,
          Option.bind (J.member "exit_code" j) J.to_int,
          Option.bind (J.member "output" j) J.to_str,
          Option.bind (J.member "diagnostics" j) J.to_str )
      with
      | Some id, Some exit_code, Some output, Some diagnostics ->
        Ok
          (Compiled
             {
               id;
               op;
               result =
                 {
                   Ompgpu_api.exit_code;
                   output;
                   diagnostics;
                   error =
                     (if exit_code = 0 then None
                      else Option.map error_of_json (J.member "error" j));
                   stats = J.member "stats" j;
                 };
             })
      | _ -> Error "malformed compile response")
    | Some "stats" -> (
      match (id, J.member "stats" j) with
      | Some id, Some stats -> Ok (Stats_reply { id; stats })
      | _ -> Error "malformed stats response")
    | Some "health" -> (
      match (id, J.member "health" j) with
      | Some id, Some health -> Ok (Health_reply { id; health })
      | _ -> Error "malformed health response")
    | Some "fleet" -> (
      match (id, J.member "fleet" j) with
      | Some id, Some fleet -> Ok (Fleet_reply { id; fleet })
      | _ -> Error "malformed fleet response")
    | Some "shutdown" -> (
      match id with
      | Some id -> Ok (Shutdown_ack { id })
      | None -> Error "malformed shutdown response")
    | Some op -> Error (Printf.sprintf "unknown response op %S" op)
    | None -> (
      match J.member "error" j with
      | Some err -> Ok (Rejected { id; error = error_of_json err })
      | None -> Error "response without op or error"))
  | _ -> Error "response without a supported \"v\""

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let max_frame_bytes = 8 * 1024 * 1024

(* Bounded, never-raising framing: a hostile peer can send an endless
   line, garbage bytes, or hang up mid-frame, and the worst it gets is a
   structured [Bad_request] (and, for oversized frames, a severed
   connection — the unread remainder of the line cannot be resynchronized
   against).  [read_frame] keeps the raw bytes for relays that must not
   re-encode; [read_message] decodes them. *)
let read_frame ic =
  let buf = Buffer.create 256 in
  let rec fill () =
    match In_channel.input_char ic with
    | None -> if Buffer.length buf = 0 then `Eof else `Line (Buffer.contents buf)
    | Some '\n' -> `Line (Buffer.contents buf)
    | Some c ->
      if Buffer.length buf >= max_frame_bytes then
        `Overflow
          (bad_request "oversized frame: request line exceeds %d bytes"
             max_frame_bytes)
      else begin
        Buffer.add_char buf c;
        fill ()
      end
  in
  fill ()

let read_message ic =
  match read_frame ic with
  | (`Eof | `Overflow _) as r -> r
  | `Line line -> (
    (* EOF before the newline lands here too: the truncated frame is
       decoded best-effort and, being torn JSON, rejected structurally *)
    match J.of_string line with
    | Ok j -> `Msg (Ok j)
    | Error msg -> `Msg (Error (bad_request "unparseable request: %s" msg)))

let write_line oc line =
  Out_channel.output_string oc line;
  Out_channel.output_char oc '\n';
  Out_channel.flush oc

let write_message oc j = write_line oc (J.to_string ~minify:true j)
