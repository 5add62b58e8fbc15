module Geometry = Rip_net.Geometry
module Net = Rip_net.Net
module Repeater_model = Rip_tech.Repeater_model

type t = {
  geometry : Geometry.t;
  repeater : Repeater_model.t;
  positions : float array;
  cum_r : float array;
  cum_c : float array;
  cum_p : float array;
  driver_width : float;
  receiver_width : float;
}

let position_tolerance = 1e-6

let create geometry repeater ~candidates =
  let net = Geometry.net geometry in
  let length = Geometry.total_length geometry in
  let interior =
    List.filter
      (fun x ->
        x > position_tolerance && x < length -. position_tolerance)
      (List.sort_uniq Float.compare candidates)
  in
  let positions = Array.of_list ((0.0 :: interior) @ [ length ]) in
  let sample f = Array.map f positions in
  {
    geometry;
    repeater;
    positions;
    cum_r = sample (Geometry.cumulative_resistance geometry);
    cum_c = sample (Geometry.cumulative_capacitance geometry);
    cum_p = sample (Geometry.cumulative_rc_moment geometry);
    driver_width = net.Net.driver_width;
    receiver_width = net.Net.receiver_width;
  }

let site_count t = Array.length t.positions
let is_interior t i = i > 0 && i < site_count t - 1

let stage_delay t ~from_site ~from_width ~to_site ~to_width =
  let rs = t.repeater.Repeater_model.rs in
  let co = t.repeater.Repeater_model.co in
  let wire_r = t.cum_r.(to_site) -. t.cum_r.(from_site) in
  let wire_c = t.cum_c.(to_site) -. t.cum_c.(from_site) in
  let wire_elmore =
    (wire_r *. t.cum_c.(to_site)) -. (t.cum_p.(to_site) -. t.cum_p.(from_site))
  in
  let gate_c = co *. to_width in
  Repeater_model.intrinsic_delay t.repeater
  +. (rs /. from_width *. (wire_c +. gate_c))
  +. (wire_r *. gate_c)
  +. wire_elmore
