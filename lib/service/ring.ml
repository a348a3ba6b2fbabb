(* Consistent-hash ring (see the .mli). *)

module H = Support.Hash64

let vnodes = 64

type t = {
  shards : string array;  (* sorted names; points reference indices here *)
  points : (int * int) array;  (* (position, shard index), sorted by position *)
}

(* FNV-1a's high bits barely avalanche on short inputs ("shard-0#17"),
   and ring positions order by the full integer — without a finalizer the
   vnode arcs clump and one shard of four can own half the key space.
   Splitmix-style avalanche, constants masked into OCaml's 63-bit int. *)
let mix h =
  let h = h lxor (h lsr 31) in
  let h = h * 0x2545F4914F6CDD1D in
  let h = h lxor (h lsr 29) in
  let h = h * 0x1B03738712FAD5C9 in
  h lxor (h lsr 32)

let hash_of s = mix (H.add_string H.empty s :> int)

let create names =
  if names = [] then invalid_arg "Ring.create: no shards";
  let shards = Array.of_list (List.sort_uniq compare names) in
  if Array.length shards <> List.length names then
    invalid_arg "Ring.create: duplicate shard names";
  let points =
    Array.init
      (Array.length shards * vnodes)
      (fun i ->
        let shard = i / vnodes and vnode = i mod vnodes in
        (hash_of (Printf.sprintf "%s#%d" shards.(shard) vnode), shard))
  in
  Array.sort compare points;
  { shards; points }

let shards t = Array.copy t.shards

(* First point at or after [pos], wrapping: classic ring lookup. *)
let successor t pos =
  let n = Array.length t.points in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fst t.points.(mid) < pos then lo := mid + 1 else hi := mid
  done;
  if !lo = n then 0 else !lo

let order t key =
  let n = Array.length t.points in
  let k = Array.length t.shards in
  let seen = Array.make k false in
  let start = successor t (hash_of key) in
  let out = ref [] and found = ref 0 and i = ref 0 in
  while !found < k && !i < n do
    let _, shard = t.points.((start + !i) mod n) in
    if not seen.(shard) then begin
      seen.(shard) <- true;
      out := shard :: !out;
      incr found
    end;
    incr i
  done;
  List.rev !out
