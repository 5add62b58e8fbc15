module Obs = Rip_obs.Metrics
module Cpu_clock = Rip_numerics.Cpu_clock

(* The router's own registry — deliberately separate from any shard's.
   The registry has no label support, so per-shard series are encoded in
   the metric name: shard "s0" yields [rip_router_shard_s0_forwarded_total]
   and so on.  Shard ids are protocol tokens over [A-Za-z0-9._-]; the
   dots and dashes Prometheus names cannot carry are mapped to '_'. *)

let sanitize id =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    id

type shard_instruments = {
  forwarded : Obs.Counter.t;  (* requests relayed to this shard *)
  failovers : Obs.Counter.t;  (* transport failures that triggered a retry elsewhere *)
  spills : Obs.Counter.t;  (* requests priced off this primary to its second choice *)
  price : Obs.Gauge.t;
  up : Obs.Gauge.t;  (* 1 while the shard answers its polls *)
  breaker_state : Obs.Gauge.t;  (* 0 closed, 1 open, 2 half-open *)
  breaker_opens : Obs.Counter.t;  (* closed/half-open -> open transitions *)
}

type t = {
  registry : Obs.t;
  requests : Obs.Counter.t;
  shed : Obs.Counter.t;
  local_degraded : Obs.Counter.t;
  rebalances : Obs.Counter.t;
  hedges : Obs.Counter.t;
  hedge_wins : Obs.Counter.t;
  forward_seconds : Obs.Histogram.t;
  in_flight : Obs.Gauge.t;
  shards : (string * shard_instruments) list;
}

let create ~shard_ids () =
  let registry = Obs.create () in
  let started = Cpu_clock.monotonic_seconds () in
  let counter name help = Obs.counter registry ~name ~help in
  Obs.gauge_fn registry ~name:"rip_router_uptime_seconds"
    ~help:"Seconds since router start (monotonic clock)" (fun () ->
      Cpu_clock.monotonic_seconds () -. started);
  let requests = counter "rip_router_requests_total" "SOLVE requests received" in
  let shed =
    counter "rip_router_shed_total"
      "SOLVE requests answered DEGRADED locally because every priced shard \
       was above the shed threshold"
  in
  let local_degraded =
    counter "rip_router_degraded_total"
      "SOLVE requests answered DEGRADED by the router itself (price shed + \
       shard loss)"
  in
  let rebalances =
    counter "rip_router_rebalances_total"
      "hash-ring membership changes (shard removed on sustained death or \
       re-added on recovery)"
  in
  let hedges =
    counter "rip_router_hedges_total"
      "forwards whose p99-derived hedge delay expired, issuing the request \
       to the spill target as well"
  in
  let hedge_wins =
    counter "rip_router_hedge_wins_total"
      "hedged forwards where the secondary's answer came back first and was \
       the one served"
  in
  let forward_seconds =
    Obs.histogram registry ~name:"rip_router_forward_seconds"
      ~help:"round-trip seconds of requests forwarded to a shard"
  in
  let in_flight =
    Obs.gauge registry ~name:"rip_router_in_flight"
      ~help:"SOLVE requests currently inside the router"
  in
  let shards =
    List.map
      (fun id ->
        let p name help =
          counter (Printf.sprintf "rip_router_shard_%s_%s" (sanitize id) name)
            (Printf.sprintf "%s (shard %s)" help id)
        in
        let g name help =
          Obs.gauge registry
            ~name:
              (Printf.sprintf "rip_router_shard_%s_%s" (sanitize id) name)
            ~help:(Printf.sprintf "%s (shard %s)" help id)
        in
        ( id,
          {
            forwarded = p "forwarded_total" "requests forwarded";
            failovers =
              p "failovers_total"
                "transport failures that sent the request elsewhere";
            spills =
              p "spills_total"
                "requests priced off this primary to its second choice";
            price = g "price" "current admission price";
            up = g "up" "1 while the shard answers polls";
            breaker_state =
              g "breaker_state"
                "circuit breaker: 0 closed, 1 open, 2 half-open";
            breaker_opens =
              p "breaker_opens_total"
                "circuit breaker trips on consecutive transport failures";
          } ))
      shard_ids
  in
  List.iter (fun (_, i) -> Obs.Gauge.set i.up 1.0) shards;
  {
    registry;
    requests;
    shed;
    local_degraded;
    rebalances;
    hedges;
    hedge_wins;
    forward_seconds;
    in_flight;
    shards;
  }

let shard t id = List.assoc id t.shards
let render t = Obs.render t.registry
let registry t = t.registry
