(** The router's own instrument registry (separate from any shard's).

    Per-shard series are encoded in the metric name —
    [rip_router_shard_<id>_forwarded_total] etc., with shard-id
    characters outside [A-Za-z0-9_] mapped to ['_'] — because the
    registry has no label support. *)

module Obs = Rip_obs.Metrics

type shard_instruments = {
  forwarded : Obs.Counter.t;
  failovers : Obs.Counter.t;
  spills : Obs.Counter.t;
  price : Obs.Gauge.t;
  up : Obs.Gauge.t;
  breaker_state : Obs.Gauge.t;  (** 0 closed, 1 open, 2 half-open *)
  breaker_opens : Obs.Counter.t;
}

type t = {
  registry : Obs.t;
  requests : Obs.Counter.t;
  shed : Obs.Counter.t;
  local_degraded : Obs.Counter.t;
  rebalances : Obs.Counter.t;
  hedges : Obs.Counter.t;  (** hedge delays that expired (secondary sent) *)
  hedge_wins : Obs.Counter.t;  (** hedges where the secondary's answer won *)
  forward_seconds : Obs.Histogram.t;
  in_flight : Obs.Gauge.t;
  shards : (string * shard_instruments) list;
}

val create : shard_ids:string list -> unit -> t
(** All shard gauges start [up = 1]. *)

val sanitize : string -> string

val shard : t -> string -> shard_instruments
(** @raise Not_found for an unknown id. *)

val render : t -> string
val registry : t -> Obs.t
