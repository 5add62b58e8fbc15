(* A weighted consistent-hash ring over shard ids.

   Positions are the first 8 bytes of MD5, read big-endian and compared
   unsigned — a pure function of the shard id (for vnodes) or the
   routing key (for lookups), so the ring is deterministic across
   process restarts: the same membership always yields the same
   placement, which is what keeps every shard's LRU cache hot for its
   key range.  Each shard owns [vnodes_per_weight * weight] virtual
   nodes; a key is served by the first vnode clockwise from its
   position, and its second choice is the next vnode belonging to a
   *different* shard — the failover and hedge target, which leaves every
   other shard's key range untouched.

   Membership edits are functional ([add]/[remove] return a new ring):
   the router swaps the ring atomically under its mutex and readers
   never observe a half-rebuilt table.  Removing one of [n]
   equally-weighted shards moves only that shard's arcs (~1/n of the
   keyspace) to their clockwise successors; every other key keeps its
   shard — the minimal-remap property the tests pin down. *)

type t = {
  positions : int64 array;  (* vnode positions, ascending unsigned *)
  owners : string array;  (* owners.(i) owns positions.(i) *)
  members : (string * int) list;  (* (id, weight), insertion order *)
  vnodes_per_weight : int;
}

let default_vnodes_per_weight = 128

let position_of_string s =
  (* First 8 of the 16 MD5 bytes; big-endian so the hex prefix a human
     reads in digests orders the same way the ring does. *)
  String.get_int64_be (Digest.string s) 0

let vnode_position id index =
  position_of_string (Printf.sprintf "%s#%d" id index)

let members t = t.members
let size t = List.length t.members
let vnode_count t = Array.length t.positions

let create ?(vnodes_per_weight = default_vnodes_per_weight) members =
  if vnodes_per_weight < 1 then
    invalid_arg "Ring.create: vnodes_per_weight must be >= 1";
  List.iteri
    (fun i (id, weight) ->
      if weight < 1 then
        invalid_arg
          (Printf.sprintf "Ring.create: shard %s has weight %d (must be >= 1)"
             id weight);
      if not (Rip_service.Protocol.valid_shard_id id) then
        invalid_arg (Printf.sprintf "Ring.create: invalid shard id %S" id);
      List.iteri
        (fun j (other, _) ->
          if j < i && String.equal id other then
            invalid_arg (Printf.sprintf "Ring.create: duplicate shard %s" id))
        members)
    members;
  let nodes =
    List.concat_map
      (fun (id, weight) ->
        List.init (vnodes_per_weight * weight) (fun i ->
            (vnode_position id i, id)))
      members
  in
  let nodes = Array.of_list nodes in
  Array.sort
    (fun (a, ida) (b, idb) ->
      match Int64.unsigned_compare a b with
      | 0 -> String.compare ida idb
      | c -> c)
    nodes;
  {
    positions = Array.map fst nodes;
    owners = Array.map snd nodes;
    members;
    vnodes_per_weight;
  }

let add t id ~weight =
  create ~vnodes_per_weight:t.vnodes_per_weight (t.members @ [ (id, weight) ])

let remove t id =
  if not (List.exists (fun (m, _) -> String.equal m id) t.members) then
    invalid_arg (Printf.sprintf "Ring.remove: unknown shard %s" id);
  create ~vnodes_per_weight:t.vnodes_per_weight
    (List.filter (fun (m, _) -> not (String.equal m id)) t.members)

(* Index of the first vnode at or clockwise-after [pos] (wrapping). *)
let successor t pos =
  let n = Array.length t.positions in
  let rec search lo hi =
    (* invariant: positions.(lo-1) < pos <= positions.(hi) (unsigned),
       with virtual sentinels at both ends *)
    if lo >= hi then hi
    else
      let mid = (lo + hi) / 2 in
      if Int64.unsigned_compare t.positions.(mid) pos < 0 then
        search (mid + 1) hi
      else search lo mid
  in
  let i = search 0 n in
  if i = n then 0 else i

let lookup t key =
  if Array.length t.positions = 0 then None
  else Some t.owners.(successor t (position_of_string key))

let lookup_pair t key =
  let n = Array.length t.positions in
  if n = 0 then None
  else
    let first = successor t (position_of_string key) in
    let primary = t.owners.(first) in
    let rec next i steps =
      if steps >= n then None
      else if String.equal t.owners.(i) primary then next ((i + 1) mod n) (succ steps)
      else Some t.owners.(i)
    in
    Some (primary, next ((first + 1) mod n) 0)

(* Fraction of the keyspace each shard owns, from vnode arc lengths.
   The arc ending at positions.(i) (coming from its predecessor,
   wrapping) belongs to owners.(i). *)
let shares t =
  let n = Array.length t.positions in
  if n = 0 then []
  else begin
    let totals = Hashtbl.create 16 in
    List.iter (fun (id, _) -> Hashtbl.replace totals id 0.0) t.members;
    let arc_fraction prev cur =
      (* unsigned (cur - prev) / 2^64; Int64 subtraction is exact
         modular arithmetic, so wrapping arcs come out right.  A full
         wrap (single vnode) measures 0 here and is fixed up below. *)
      let span = Int64.sub cur prev in
      let f = Int64.to_float span in
      let f = if f < 0.0 then f +. 0x1p64 else f in
      f /. 0x1p64
    in
    for i = 0 to n - 1 do
      let prev = t.positions.((i + n - 1) mod n) in
      let fraction =
        if n = 1 then 1.0 else arc_fraction prev t.positions.(i)
      in
      let id = t.owners.(i) in
      Hashtbl.replace totals id
        (Hashtbl.find totals id +. fraction)
    done;
    List.map (fun (id, _) -> (id, Hashtbl.find totals id)) t.members
  end
