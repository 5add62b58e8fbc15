type side = Left | Right

type t = {
  net : Net.t;
  starts : float array;  (* position where segment i begins; length m+1,
                            starts.(m) = L *)
  r_prefix : float array;  (* R(starts.(i)) *)
  c_prefix : float array;  (* C(starts.(i)) *)
  p_prefix : float array;  (* P(starts.(i)) = int_0^x r C *)
}

let position_tolerance = 1e-6

let of_net net =
  let segments = net.Net.segments in
  let m = Array.length segments in
  let starts = Array.make (m + 1) 0.0 in
  let r_prefix = Array.make (m + 1) 0.0 in
  let c_prefix = Array.make (m + 1) 0.0 in
  let p_prefix = Array.make (m + 1) 0.0 in
  for i = 0 to m - 1 do
    let s = segments.(i) in
    let len = s.Segment.length in
    let r = s.Segment.resistance_per_um in
    let c = s.Segment.capacitance_per_um in
    starts.(i + 1) <- starts.(i) +. len;
    r_prefix.(i + 1) <- r_prefix.(i) +. (r *. len);
    c_prefix.(i + 1) <- c_prefix.(i) +. (c *. len);
    (* P over the segment: C(t) = C0 + c (t - x0) with constant r. *)
    p_prefix.(i + 1) <-
      p_prefix.(i)
      +. (r *. ((c_prefix.(i) *. len) +. (0.5 *. c *. len *. len)))
  done;
  { net; starts; r_prefix; c_prefix; p_prefix }

let net g = g.net
let total_length g = g.starts.(Array.length g.starts - 1)
let boundaries g = Array.to_list g.starts

let clamp g x =
  let length = total_length g in
  if x < -.position_tolerance || x > length +. position_tolerance then
    invalid_arg
      (Printf.sprintf "Geometry: position %g outside net [0, %g]" x length);
  Float.max 0.0 (Float.min length x)

(* Largest i with starts.(i) <= x, searched over starts.(0..m). *)
let boundary_index g x =
  let last = Array.length g.starts - 1 in
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi + 1) / 2 in
      if g.starts.(mid) <= x then search mid hi else search lo (mid - 1)
  in
  search 0 last

let segment_index_at g side x =
  let x = clamp g x in
  let m = Array.length g.net.Net.segments in
  let i = boundary_index g x in
  let at_boundary = Float.abs (g.starts.(i) -. x) <= position_tolerance in
  let i =
    match side with
    | Right -> i
    | Left -> if at_boundary then i - 1 else i
  in
  if i < 0 then 0 else if i > m - 1 then m - 1 else i

(* Cumulative R at an arbitrary position. *)
let r_at g x =
  let x = clamp g x in
  let i = boundary_index g x in
  if i >= Array.length g.net.Net.segments then g.r_prefix.(i)
  else
    let s = g.net.Net.segments.(i) in
    g.r_prefix.(i) +. (s.Segment.resistance_per_um *. (x -. g.starts.(i)))

let c_at g x =
  let x = clamp g x in
  let i = boundary_index g x in
  if i >= Array.length g.net.Net.segments then g.c_prefix.(i)
  else
    let s = g.net.Net.segments.(i) in
    g.c_prefix.(i) +. (s.Segment.capacitance_per_um *. (x -. g.starts.(i)))

let p_at g x =
  let x = clamp g x in
  let i = boundary_index g x in
  if i >= Array.length g.net.Net.segments then g.p_prefix.(i)
  else
    let s = g.net.Net.segments.(i) in
    let dx = x -. g.starts.(i) in
    let r = s.Segment.resistance_per_um in
    let c = s.Segment.capacitance_per_um in
    g.p_prefix.(i) +. (r *. ((g.c_prefix.(i) *. dx) +. (0.5 *. c *. dx *. dx)))

let check_ordered name a b =
  if a > b +. position_tolerance then
    invalid_arg (Printf.sprintf "Geometry.%s: a > b (%g > %g)" name a b)

let resistance_between g a b =
  check_ordered "resistance_between" a b;
  if a >= b then 0.0 else r_at g b -. r_at g a

let capacitance_between g a b =
  check_ordered "capacitance_between" a b;
  if a >= b then 0.0 else c_at g b -. c_at g a

(* D(a,b) = int_a^b r (C(b) - C(t)) dt.  The prefix form
   (R(b)-R(a)) C(b) - (P(b)-P(a)) subtracts quantities that grow with the
   distance from the driver, so on a short span far down the net it
   cancels away most of its digits.  A span over at most
   [summed_pieces] segments is summed piece by piece instead, walking
   back from b: a piece of length l inside one segment adds
   r l (c l / 2 + C(piece end, b)) — r c l^2 / 2 alone when a and b
   share a segment — which involves no cancellation.  Longer spans are
   long enough for the prefix form. *)
let summed_pieces = 8

let wire_elmore_between g a b =
  check_ordered "wire_elmore_between" a b;
  if a >= b then 0.0
  else
    let a = clamp g a and b = clamp g b in
    let segments = g.net.Net.segments in
    let first = boundary_index g a in
    let last = min (boundary_index g b) (Array.length segments - 1) in
    if last - first < summed_pieces then begin
      let d = ref 0.0 and downstream = ref 0.0 in
      for k = last downto first do
        let s = segments.(k) in
        let l = Float.min b g.starts.(k + 1) -. Float.max a g.starts.(k) in
        let c_piece = s.Segment.capacitance_per_um *. l in
        d := !d +. (s.Segment.resistance_per_um *. l
                    *. ((0.5 *. c_piece) +. !downstream));
        downstream := !downstream +. c_piece
      done;
      !d
    end
    else
      let d =
        ((r_at g b -. r_at g a) *. c_at g b) -. (p_at g b -. p_at g a)
      in
      (* Exact value is non-negative; cancellation can leave a tiny
         negative. *)
      Float.max 0.0 d

let cumulative_resistance = r_at
let cumulative_capacitance = c_at
let cumulative_rc_moment = p_at

let unit_rc_at g side x =
  let i = segment_index_at g side x in
  let s = g.net.Net.segments.(i) in
  (s.Segment.resistance_per_um, s.Segment.capacitance_per_um)
