(* Order statistics with the sample-count rule the benchmark reports by:
   a tail percentile is published only when at least [min_beyond]
   samples lie beyond it, so a p99 always rests on ten or more
   observations rather than on one unlucky request. *)

let min_beyond = 10

let samples_beyond ~n q =
  if n <= 0 then 0 else n - int_of_float (Float.ceil (q *. float_of_int n))

let supported ~n q = samples_beyond ~n q >= min_beyond

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Type-7 (linear interpolation) quantile, the convention rip_numerics
   and the server-side histograms share. *)
let quantile_sorted a q =
  if Array.length a = 0 then Float.nan
  else Rip_numerics.Stats.quantile_sorted a q

let quantile q xs = quantile_sorted (sorted xs) q
let median xs = quantile 0.5 xs

let mean = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let sum xs = List.fold_left ( +. ) 0.0 xs

(* A time-ordered sample cut into consecutive blocks of at least
   [block] observations; a sample too short for two blocks is one
   block. *)
let block = 1000

let blocks xs =
  let n = List.length xs in
  let count = n / block in
  if count < 2 then [ xs ]
  else
    let a = Array.of_list xs in
    let size = n / count in
    List.init count (fun b ->
        let len = if b = count - 1 then n - (b * size) else size in
        Array.to_list (Array.sub a (b * size) len))

(* The [q]-quantile of a time-ordered sample, robust to a burst of host
   noise: the median over blocks of each block's quantile. *)
let blocked_quantile q xs = median (List.map (quantile q) (blocks xs))
