(* Deterministic fault injection (see the .mli). *)

type site =
  | Mem_alloc
  | Shared_budget
  | Sim_trap
  | Pass_crash
  | Cache_corrupt
  | Disk_full
  | Pool_stall
  | Conn_drop
  | Partial_frame
  | Slow_client
  | Daemon_kill
  | Shard_down
  | Probe_timeout
  | Ring_skew

let all_sites =
  [
    Mem_alloc;
    Shared_budget;
    Sim_trap;
    Pass_crash;
    Cache_corrupt;
    Disk_full;
    Pool_stall;
    Conn_drop;
    Partial_frame;
    Slow_client;
    Daemon_kill;
    Shard_down;
    Probe_timeout;
    Ring_skew;
  ]

let site_name = function
  | Mem_alloc -> "mem-alloc"
  | Shared_budget -> "shared-budget"
  | Sim_trap -> "sim-trap"
  | Pass_crash -> "pass-crash"
  | Cache_corrupt -> "cache-corrupt"
  | Disk_full -> "disk-full"
  | Pool_stall -> "pool-stall"
  | Conn_drop -> "conn-drop"
  | Partial_frame -> "partial-frame"
  | Slow_client -> "slow-client"
  | Daemon_kill -> "daemon-kill"
  | Shard_down -> "shard-down"
  | Probe_timeout -> "probe-timeout"
  | Ring_skew -> "ring-skew"

let site_of_name s = List.find_opt (fun x -> site_name x = s) all_sites

type spec = { site : site; rate : float; seed : int }

let parse_spec s =
  match String.split_on_char ':' s with
  | [] | [ "" ] -> Error "empty injection spec"
  | name :: rest -> (
    match site_of_name name with
    | None ->
      Error
        (Printf.sprintf "unknown injection site %S (known: %s)" name
           (String.concat ", " (List.map site_name all_sites)))
    | Some site -> (
      let rate_of s =
        match float_of_string_opt s with
        | Some r when r >= 0.0 && r <= 1.0 -> Ok r
        | _ -> Error (Printf.sprintf "bad rate %S (want a float in [0,1])" s)
      in
      let seed_of s =
        match int_of_string_opt s with
        | Some n -> Ok n
        | None -> Error (Printf.sprintf "bad seed %S (want an integer)" s)
      in
      match rest with
      | [] -> Ok { site; rate = 1.0; seed = 0 }
      | [ r ] -> Result.map (fun rate -> { site; rate; seed = 0 }) (rate_of r)
      | [ r; s ] ->
        Result.bind (rate_of r) (fun rate ->
            Result.map (fun seed -> { site; rate; seed }) (seed_of s))
      | _ -> Error (Printf.sprintf "malformed injection spec %S (site[:rate][:seed])" s)))

let spec_to_string { site; rate; seed } =
  Printf.sprintf "%s:%g:%d" (site_name site) rate seed

(* One armed site: the spec plus its query counter.  The counter is the only
   mutable state; Atomic keeps [fire] safe to call from pool domains. *)
type armed = { spec : spec; counter : int Atomic.t }

type t = armed list  (* empty = none *)

let none = []
let is_none t = t = []
let create specs = List.map (fun spec -> { spec; counter = Atomic.make 0 }) specs
let specs t = List.map (fun a -> a.spec) t

(* splitmix64: the standard 64-bit finalizer; full avalanche, so consecutive
   counters give independent-looking coins. *)
let splitmix64 x =
  let open Int64 in
  let z = add x 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let site_tag site = Int64.of_int (1 + Hashtbl.hash (site_name site))

let coin ~seed ~site ~n =
  let h = splitmix64 (Int64.logxor (Int64.of_int seed) (site_tag site)) in
  let h = splitmix64 (Int64.logxor h (Int64.of_int n)) in
  (* top 53 bits → uniform float in [0,1) *)
  Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.0

(* A direct walk: a [List.find_opt] predicate would allocate a closure on
   every query, and the simulator queries [Sim_trap] once per instruction. *)
let rec fire t site =
  match t with
  | [] -> false
  | a :: rest ->
    if a.spec.site <> site then fire rest site
    else
      let n = Atomic.fetch_and_add a.counter 1 in
      coin ~seed:a.spec.seed ~site ~n < a.spec.rate

let derive t tag =
  let tag64 = splitmix64 (Int64.of_int (Hashtbl.hash tag)) in
  create
    (List.map
       (fun a ->
         let seed64 = splitmix64 (Int64.logxor (Int64.of_int a.spec.seed) tag64) in
         { a.spec with seed = Int64.to_int (Int64.shift_right_logical seed64 1) })
       t)

let fingerprint t =
  match t with
  | [] -> ""
  | _ -> String.concat ";" (List.sort compare (List.map (fun a -> spec_to_string a.spec) t))

let stall_seconds = 0.25

let stall t = if fire t Pool_stall then Unix.sleepf stall_seconds
