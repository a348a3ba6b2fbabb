(* Directory-backed blob cache.  No Unix dependency beyond stat/time: Sys +
   channels are enough for mkdir-p (via repeated Sys.mkdir), atomic publish
   (write a unique temp file, Sys.rename over the destination) and lookup.

   Entries are self-verifying: a digest header is prepended at store time
   and checked on every read.  An entry that fails the check — torn write,
   disk corruption, an injected bit-flip — is quarantined (moved aside, so
   a later run can inspect it) and reported as a miss: the cache heals by
   recomputing, it never serves corrupt data.

   Governance (PR 10): [create] scrubs the directory — every entry is
   digest-verified eagerly (corrupt ones quarantined on the spot) and the
   surviving sizes seed an in-memory byte ledger.  [store] enforces an
   optional byte quota / entry cap by evicting oldest-written entries
   first (LRU by mtime), and never raises: any failure (ENOSPC, EDQUOT,
   permissions, or the injected [Disk_full] site) is counted, and N
   consecutive failures trip a write-disabling breaker that re-probes
   after a cooldown — a full disk costs warm hits, never a reply.

   The ledger is per-process: peers sharing the directory (fleet shards)
   keep their own, so cross-process evictions make a ledger conservative
   rather than wrong — evicting an already-deleted file is a no-op, and a
   peer's writes are picked up by the next scrub. *)

type t = {
  cache_dir : string;
  injector : Fault.Injector.t;
  on_corrupt : (key:string -> path:string -> unit) option;
  max_bytes : int option;
  max_entries : int option;
  failure_threshold : int;
  reprobe_after_s : float;
  mutex : Mutex.t;
  ledger : (string, int * float) Hashtbl.t;  (* basename -> (bytes, mtime) *)
  mutable ledger_bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable corrupt : int;
  mutable swept : int;
  mutable scrubbed : int;  (* entries digest-verified by the startup scrub *)
  mutable evictions : int;
  mutable store_failures : int;
  mutable consec_failures : int;
  mutable breaker_trips : int;
  mutable disabled_until : float;  (* no writes before this monotonic time; 0 = open *)
}

let rec mkdir_p path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755
    with Sys_error _ when Sys.file_exists path -> ()  (* lost a creation race *)
  end

(* Temp files are only ever alive between [Filename.temp_file] and the
   publishing [Sys.rename] — milliseconds.  A temp older than the age gate
   is an orphan from a writer that died mid-store; the gate is generous so
   a sweep never races a live concurrent writer. *)
let default_temp_age_s = 600.

let default_failure_threshold = 3
let default_reprobe_after_s = 5.0

let temp_prefix = "sched-cache"
let temp_suffix = ".tmp"

let is_temp_name name =
  let lp = String.length temp_prefix and ls = String.length temp_suffix in
  let ln = String.length name in
  ln > lp + ls
  && String.sub name 0 lp = temp_prefix
  && String.sub name (ln - ls) ls = temp_suffix

(* Move orphaned temps aside rather than deleting: like corrupt entries,
   the quarantine directory preserves the evidence for post-mortem. *)
let sweep_temps_in ~max_age_s dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | names ->
    let now = Unix.gettimeofday () in
    Array.fold_left
      (fun n name ->
        if not (is_temp_name name) then n
        else
          let path = Filename.concat dir name in
          match Unix.lstat path with
          | exception Unix.Unix_error _ -> n (* lost a race; already gone *)
          | st ->
            if
              st.Unix.st_kind = Unix.S_REG
              && now -. st.Unix.st_mtime >= max_age_s
            then begin
              let qdir = Filename.concat dir "quarantine" in
              mkdir_p qdir;
              match Sys.rename path (Filename.concat qdir name) with
              | () -> n + 1
              | exception Sys_error _ -> n (* another sweeper won the race *)
            end
            else n)
      0 names

let sweep_temps ?(max_age_s = default_temp_age_s) t =
  let n = sweep_temps_in ~max_age_s t.cache_dir in
  Mutex.lock t.mutex;
  t.swept <- t.swept + n;
  Mutex.unlock t.mutex;
  n

let dir t = t.cache_dir

(* keys are Cache.key digests, but sanitize anyway so a stray caller cannot
   escape the cache directory *)
let path_of t key =
  let safe =
    String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c | _ -> '_')
      key
  in
  Filename.concat t.cache_dir safe

let count_hit t ok =
  Mutex.lock t.mutex;
  if ok then t.hits <- t.hits + 1 else t.misses <- t.misses + 1;
  Mutex.unlock t.mutex

(* Entry format: "sched-blob-v1:" ^ md5-hex(payload) ^ "\n" ^ payload.
   The magic doubles as a format version; headerless files (from an older
   layout or a foreign writer) fail verification like corrupt ones. *)
let header_magic = "sched-blob-v1:"
let digest_hex_len = 32
let header_len = String.length header_magic + digest_hex_len + 1

let encode_entry data = header_magic ^ Digest.to_hex (Digest.string data) ^ "\n" ^ data

let decode_entry raw =
  if
    String.length raw >= header_len
    && String.sub raw 0 (String.length header_magic) = header_magic
    && raw.[header_len - 1] = '\n'
  then begin
    let digest = String.sub raw (String.length header_magic) digest_hex_len in
    let data = String.sub raw header_len (String.length raw - header_len) in
    if String.equal digest (Digest.to_hex (Digest.string data)) then Some data else None
  end
  else None

(* ---- ledger (call with t.mutex held) ---- *)

let ledger_forget_locked t name =
  match Hashtbl.find_opt t.ledger name with
  | Some (bytes, _) ->
    Hashtbl.remove t.ledger name;
    t.ledger_bytes <- t.ledger_bytes - bytes
  | None -> ()

let ledger_record_locked t name bytes mtime =
  ledger_forget_locked t name;
  Hashtbl.replace t.ledger name (bytes, mtime);
  t.ledger_bytes <- t.ledger_bytes + bytes

(* Oldest mtime first; basename ascending on ties, so eviction order is
   deterministic under the logical store clock. *)
let coldest_locked t =
  Hashtbl.fold
    (fun name (bytes, mtime) best ->
      match best with
      | Some (_, _, bm) when bm < mtime -> best
      | Some (bn, _, bm) when bm = mtime && bn <= name -> best
      | _ -> Some (name, bytes, mtime))
    t.ledger None

let over_quota_locked t =
  (match t.max_bytes with Some cap -> t.ledger_bytes > cap | None -> false)
  || match t.max_entries with
     | Some cap -> Hashtbl.length t.ledger > cap
     | None -> false

let rec evict_over_locked t =
  if over_quota_locked t then
    match coldest_locked t with
    | None -> ()
    | Some (name, bytes, _) ->
      Hashtbl.remove t.ledger name;
      t.ledger_bytes <- t.ledger_bytes - bytes;
      t.evictions <- t.evictions + 1;
      (try Sys.remove (Filename.concat t.cache_dir name)
       with Sys_error _ -> ()  (* a peer already deleted it; ledger was stale *));
      evict_over_locked t

(* Move a failed entry aside rather than deleting it: the quarantine
   directory preserves the evidence for post-mortem without ever being
   consulted by lookups. *)
let quarantine t ~key path =
  Mutex.lock t.mutex;
  t.corrupt <- t.corrupt + 1;
  ledger_forget_locked t (Filename.basename path);
  Mutex.unlock t.mutex;
  let qdir = Filename.concat t.cache_dir "quarantine" in
  mkdir_p qdir;
  (try Sys.rename path (Filename.concat qdir (Filename.basename path))
   with Sys_error _ -> ()  (* lost a race with another reader; already moved *));
  match t.on_corrupt with Some f -> f ~key ~path | None -> ()

(* Entry basenames come out of [path_of]'s sanitizer, so a name with any
   character outside its charset (a dot, a temp suffix) was never written
   by this cache — not ours to scrub or quarantine. *)
let is_entry_name name =
  name <> ""
  && String.for_all
       (fun c ->
         match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> true | _ -> false)
       name

(* Startup scrub: digest-verify every entry eagerly, quarantining failures
   now (not on first lookup) and seeding the byte ledger with the
   survivors — so the quota holds from the first store, over entries this
   process never wrote. *)
let scrub t =
  match Sys.readdir t.cache_dir with
  | exception Sys_error _ -> ()
  | names ->
    Array.iter
      (fun name ->
        if is_entry_name name then
          let path = Filename.concat t.cache_dir name in
          match Unix.lstat path with
          | exception Unix.Unix_error _ -> ()
          | st when st.Unix.st_kind <> Unix.S_REG -> () (* quarantine/ etc *)
          | st -> (
            match In_channel.with_open_bin path In_channel.input_all with
            | exception Sys_error _ -> quarantine t ~key:name path
            | raw -> (
              match decode_entry raw with
              | Some _ ->
                Mutex.lock t.mutex;
                t.scrubbed <- t.scrubbed + 1;
                ledger_record_locked t name (String.length raw) st.Unix.st_mtime;
                Mutex.unlock t.mutex
              | None -> quarantine t ~key:name path)))
      names

let create ?(injector = Fault.Injector.none) ?on_corrupt
    ?(temp_age_s = default_temp_age_s) ?max_bytes ?max_entries
    ?(failure_threshold = default_failure_threshold)
    ?(reprobe_after_s = default_reprobe_after_s) ~dir () =
  mkdir_p dir;
  let t =
    {
      cache_dir = dir;
      injector;
      on_corrupt;
      max_bytes = Option.map (max 0) max_bytes;
      max_entries = Option.map (max 0) max_entries;
      failure_threshold = max 1 failure_threshold;
      reprobe_after_s;
      mutex = Mutex.create ();
      ledger = Hashtbl.create 64;
      ledger_bytes = 0;
      hits = 0;
      misses = 0;
      corrupt = 0;
      swept = 0;
      scrubbed = 0;
      evictions = 0;
      store_failures = 0;
      consec_failures = 0;
      breaker_trips = 0;
      disabled_until = 0.;
    }
  in
  ignore (sweep_temps ~max_age_s:temp_age_s t);
  scrub t;
  (* the scrub may have found more bytes than the quota allows (a smaller
     cap than last run, or a peer's writes): converge immediately *)
  Mutex.lock t.mutex;
  evict_over_locked t;
  Mutex.unlock t.mutex;
  t

(* TOCTOU-free lookup: open directly instead of testing existence first —
   a concurrent quarantine/eviction rename between the two would leak a
   Sys_error out of what must always be a plain miss. *)
let find t ~key =
  let path = path_of t key in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ ->
    count_hit t false;
    None
  | raw -> (
    match decode_entry raw with
    | Some data ->
      count_hit t true;
      Some data
    | None ->
      quarantine t ~key path;
      count_hit t false;
      None)

(* Flip one payload bit after the digest was computed: the entry is
   well-formed on disk but fails verification on the next read. *)
let corrupt_entry entry =
  let b = Bytes.of_string entry in
  let pos = min (Bytes.length b - 1) header_len in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
  Bytes.to_string b

let record_store_failure t =
  Mutex.lock t.mutex;
  t.store_failures <- t.store_failures + 1;
  t.consec_failures <- t.consec_failures + 1;
  if t.consec_failures >= t.failure_threshold && t.disabled_until = 0. then begin
    t.breaker_trips <- t.breaker_trips + 1;
    t.disabled_until <- Observe.Clock.now_s () +. t.reprobe_after_s
  end
  else if t.consec_failures >= t.failure_threshold then
    (* probe failed: stay disabled for another cooldown *)
    t.disabled_until <- Observe.Clock.now_s () +. t.reprobe_after_s;
  Mutex.unlock t.mutex

let record_store_success t ~name ~bytes =
  Mutex.lock t.mutex;
  t.consec_failures <- 0;
  t.disabled_until <- 0.;
  ledger_record_locked t name bytes (Unix.gettimeofday ());
  evict_over_locked t;
  Mutex.unlock t.mutex

(* Never-fail store: a cache write is an optimization, so no failure of it
   may surface to the caller — the result was already computed.  While the
   breaker is open, stores are skipped outright (no syscalls against a
   disk known to be full) until the re-probe time, when the next store
   attempt doubles as the probe. *)
let store t ~key ~data =
  let skip =
    Mutex.lock t.mutex;
    let s = t.disabled_until > 0. && Observe.Clock.now_s () < t.disabled_until in
    Mutex.unlock t.mutex;
    s
  in
  if not skip then
    if Fault.Injector.fire t.injector Fault.Injector.Disk_full then
      record_store_failure t
    else begin
      let path = path_of t key in
      let entry = encode_entry data in
      let entry =
        if Fault.Injector.fire t.injector Fault.Injector.Cache_corrupt then
          corrupt_entry entry
        else entry
      in
      (* Filename.temp_file picks a name unique across processes; the
         rename is same-directory, so the publish is atomic.  A crash
         between create and rename orphans the temp — the age-gated
         startup sweep reclaims it. *)
      match
        let tmp =
          Filename.temp_file ~temp_dir:t.cache_dir temp_prefix temp_suffix
        in
        match
          Out_channel.with_open_bin tmp (fun oc ->
              Out_channel.output_string oc entry);
          Sys.rename tmp path
        with
        | () -> ()
        | exception e ->
          (try Sys.remove tmp with Sys_error _ -> ());
          raise e
      with
      | () -> record_store_success t ~name:(Filename.basename path)
                ~bytes:(String.length entry)
      | exception (Sys_error _ | Unix.Unix_error _) -> record_store_failure t
    end

let find_or_compute t ~key f =
  match find t ~key with
  | Some data -> data
  | None ->
    let data = f () in
    store t ~key ~data;
    data

let with_lock t f =
  Mutex.lock t.mutex;
  let v = f () in
  Mutex.unlock t.mutex;
  v

let hits t = with_lock t (fun () -> t.hits)
let misses t = with_lock t (fun () -> t.misses)
let corrupt t = with_lock t (fun () -> t.corrupt)
let swept t = with_lock t (fun () -> t.swept)
let scrubbed t = with_lock t (fun () -> t.scrubbed)
let evictions t = with_lock t (fun () -> t.evictions)
let bytes t = with_lock t (fun () -> t.ledger_bytes)
let entries t = with_lock t (fun () -> Hashtbl.length t.ledger)
let store_failures t = with_lock t (fun () -> t.store_failures)
let breaker_trips t = with_lock t (fun () -> t.breaker_trips)

let writes_disabled t =
  with_lock t (fun () ->
      t.disabled_until > 0. && Observe.Clock.now_s () < t.disabled_until)

let max_bytes t = t.max_bytes
