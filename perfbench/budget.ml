(* The latency budget: how one request's end-to-end time splits into
   layer self times, and what is left unattributed.

   A span's self time is its duration minus the part of its interval
   covered by spans nested inside it.  Spans of one request may come
   from several processes; their timestamps share the machine's
   CLOCK_MONOTONIC timebase, so nesting is decided on absolute time. *)

type span = { name : string; start : float; stop : float }

let duration s = s.stop -. s.start

(* Length of the union of intervals. *)
let union_length intervals =
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) intervals in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (total, Some (ca, Float.max cb b))
            else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* [spans] of one request; identical intervals nest in list order. *)
let self_times spans =
  let indexed = List.mapi (fun i s -> (i, s)) spans in
  let contains (i, a) (j, b) =
    i <> j && a.start <= b.start && b.stop <= a.stop
    && (not (b.start <= a.start && a.stop <= b.stop) || j > i)
  in
  List.map
    (fun (i, s) ->
      let inner =
        List.filter_map
          (fun (j, c) ->
            if contains (i, s) (j, c) then Some (c.start, c.stop) else None)
          indexed
      in
      (s.name, Float.max 0.0 (duration s -. union_length inner)))
    indexed

(* The request's time per layer: self times summed by [layer_of] name;
   spans mapped to [None] are dropped. *)
let per_layer ~layer_of spans =
  List.fold_left
    (fun acc (name, self) ->
      match layer_of name with
      | None -> acc
      | Some layer ->
          let prev = Option.value ~default:0.0 (List.assoc_opt layer acc) in
          (layer, prev +. self) :: List.remove_assoc layer acc)
    [] (self_times spans)

(* The budget of the median request: the per-layer self times averaged
   over the requests whose end-to-end time lies in the middle tenth
   (45th to 55th percentile).  Summing per-layer medians instead would
   miscount whenever a layer's time is skewed; the median band keeps the
   layers of one kind of request together.  A request that never
   entered a layer contributes 0 to it. *)
let median_band requests =
  match requests with
  | [] -> []
  | _ ->
      let sorted =
        List.sort (fun (a, _) (b, _) -> Float.compare a b) requests |> Array.of_list
      in
      let n = Array.length sorted in
      let lo = int_of_float (0.45 *. float_of_int n)
      and hi = max (int_of_float (0.55 *. float_of_int n)) (int_of_float (0.45 *. float_of_int n) + 1) in
      let band = Array.to_list (Array.sub sorted lo (min n hi - lo)) |> List.map snd in
      let layers =
        List.sort_uniq String.compare (List.concat_map (List.map fst) band)
      in
      List.map
        (fun layer ->
          ( layer,
            Stat.mean
              (List.map
                 (fun r -> Option.value ~default:0.0 (List.assoc_opt layer r))
                 band) ))
        layers

(* End-to-end p50 minus the sum of layer self times, as a share of the
   p50.  Negative when the layers over-account (medians of skewed
   layers need not add up). *)
let unattributed_frac ~e2e_p50 ~layers =
  if e2e_p50 <= 0.0 then 0.0
  else (e2e_p50 -. List.fold_left (fun acc (_, v) -> acc +. v) 0.0 layers) /. e2e_p50
