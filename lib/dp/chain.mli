(** Shared precomputation for the chain DPs.

    Flattens driver, interior candidate sites and receiver into one
    position array and precomputes cumulative wire R/C and the RC moment at
    every site, so a stage delay between any two sites is pure arithmetic
    (no geometry walks in the DP inner loops). *)

type t = {
  geometry : Rip_net.Geometry.t;
  repeater : Rip_tech.Repeater_model.t;
  positions : float array;  (** index 0 = driver at 0, last = receiver at L *)
  cum_r : float array;  (** R(positions.(i)) *)
  cum_c : float array;
  cum_p : float array;
  driver_width : float;
  receiver_width : float;
}

val create :
  Rip_net.Geometry.t -> Rip_tech.Repeater_model.t -> candidates:float list ->
  t
(** Candidate sites are clipped to the open interval (0, L) and
    de-duplicated; they need not be zone-legal (legality is the candidate
    generator's contract). *)

val site_count : t -> int
(** Number of positions including driver and receiver. *)

val stage_delay :
  t -> from_site:int -> from_width:float -> to_site:int -> to_width:float ->
  float
(** Eq. (1) between two sites, O(1). *)

val is_interior : t -> int -> bool
