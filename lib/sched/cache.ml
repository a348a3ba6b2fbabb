(* In-memory content-addressed cache; one mutex, accurate hit/miss
   accounting under concurrency.

   Bounded mode (PR 10): [create ?max_entries ?max_bytes ?size_of] turns
   the table into an LRU — an intrusive doubly-linked recency list over
   the Hashtbl nodes, maintained under the same mutex, so eviction is
   O(1) per entry and the lock-ordering story is unchanged.  With no caps
   the list is still maintained (a handful of pointer writes per
   operation) but nothing is ever evicted, which keeps [create ()]
   byte-for-byte compatible with every pre-governance caller. *)

type 'a node = {
  nkey : string;
  mutable value : 'a;
  mutable nbytes : int;
  mutable prev : 'a node option;  (* toward MRU *)
  mutable next : 'a node option;  (* toward LRU *)
}

type 'a t = {
  mutex : Mutex.t;
  table : (string, 'a node) Hashtbl.t;
  max_entries : int option;
  max_bytes : int option;
  size_of : 'a -> int;
  mutable head : 'a node option;  (* most recently used *)
  mutable tail : 'a node option;  (* least recently used; evicted first *)
  mutable total_bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?max_entries ?max_bytes ?(size_of = fun _ -> 0) () =
  {
    mutex = Mutex.create ();
    table = Hashtbl.create 64;
    max_entries = Option.map (max 0) max_entries;
    max_bytes = Option.map (max 0) max_bytes;
    size_of;
    head = None;
    tail = None;
    total_bytes = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

(* Frame every part with its length so ["ab"; "c"] and ["a"; "bc"] cannot
   collide, then fold the streaming hash — no buffer, no copy, one
   multiply per byte (Support.Hash64 replaced MD5 here; see its header). *)
let key parts =
  Support.Hash64.to_hex
    (List.fold_left
       (fun h p ->
         Support.Hash64.add_string (Support.Hash64.add_int h (String.length p)) p)
       Support.Hash64.empty parts)

(* ---- recency list (call with t.mutex held) ---- *)

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.prev <- None;
  node.next <- t.head;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let touch t node =
  if t.head != Some node then begin
    unlink t node;
    push_front t node
  end

let over_cap t =
  (match t.max_entries with
  | Some cap -> Hashtbl.length t.table > cap
  | None -> false)
  || match t.max_bytes with Some cap -> t.total_bytes > cap | None -> false

(* Evict from the LRU end until back under both caps.  An entry larger
   than max_bytes on its own is evicted immediately after insertion — the
   caller still got its value; the cache just declines to retain it. *)
let rec evict_over t =
  if over_cap t then
    match t.tail with
    | None -> ()
    | Some node ->
      unlink t node;
      Hashtbl.remove t.table node.nkey;
      t.total_bytes <- t.total_bytes - node.nbytes;
      t.evictions <- t.evictions + 1;
      evict_over t

let insert t ~key v =
  let node = { nkey = key; value = v; nbytes = t.size_of v; prev = None; next = None } in
  Hashtbl.replace t.table key node;
  push_front t node;
  t.total_bytes <- t.total_bytes + node.nbytes;
  evict_over t

(* ---- public operations ---- *)

let find_or_compute t ~key f =
  Mutex.lock t.mutex;
  match Hashtbl.find_opt t.table key with
  | Some node ->
    t.hits <- t.hits + 1;
    touch t node;
    let v = node.value in
    Mutex.unlock t.mutex;
    v
  | None ->
    t.misses <- t.misses + 1;
    Mutex.unlock t.mutex;
    let v = f () in
    Mutex.lock t.mutex;
    (* first insertion wins; concurrent computers of the same key produced
       equal values by the determinism contract *)
    let v =
      match Hashtbl.find_opt t.table key with
      | Some existing -> existing.value
      | None ->
        insert t ~key v;
        v
    in
    Mutex.unlock t.mutex;
    v

(* Atomic overwrite: readers serialized on the same mutex observe either
   the old or the new value, never a torn entry.  The tier-upgrade path
   uses this to promote a fast-tier result to the full-pipeline one; when
   the fast entry was evicted mid-upgrade the promotion re-inserts, so the
   full-pipeline bytes land either way. *)
let replace t ~key v =
  Mutex.lock t.mutex;
  (match Hashtbl.find_opt t.table key with
  | Some node ->
    let nbytes = t.size_of v in
    t.total_bytes <- t.total_bytes - node.nbytes + nbytes;
    node.value <- v;
    node.nbytes <- nbytes;
    touch t node;
    evict_over t
  | None -> insert t ~key v);
  Mutex.unlock t.mutex

(* Counter-neutral lookup: inspecting a cache must not distort the
   request-path hit/miss accounting — nor the recency order, so a peek
   never saves an entry from eviction. *)
let peek t ~key =
  Mutex.lock t.mutex;
  let v = Option.map (fun n -> n.value) (Hashtbl.find_opt t.table key) in
  Mutex.unlock t.mutex;
  v

let with_lock t f =
  Mutex.lock t.mutex;
  let v = f () in
  Mutex.unlock t.mutex;
  v

let hits t = with_lock t (fun () -> t.hits)
let misses t = with_lock t (fun () -> t.misses)

let hit_rate t =
  with_lock t (fun () ->
      let total = t.hits + t.misses in
      if total = 0 then 0. else float_of_int t.hits /. float_of_int total)

let length t = with_lock t (fun () -> Hashtbl.length t.table)
let bytes t = with_lock t (fun () -> t.total_bytes)
let evictions t = with_lock t (fun () -> t.evictions)
let max_entries t = t.max_entries
let max_bytes t = t.max_bytes

let reset_counters t =
  with_lock t (fun () ->
      t.hits <- 0;
      t.misses <- 0)
