(** The cluster front end: one listening socket routing SOLVE traffic
    over N [rip_serviced] shards.

    Requests route by consistent-hashing the net's canonical digest
    ({!Rip_net.Net.canonical_digest}) over a weighted {!Ring}, keeping
    each shard's solve cache hot for its own key range.  Admission is
    price-based: a poller scrapes each shard's METRICS and feeds the
    deltas to a {!Pricing} controller, and the request path forwards to the primary
    while its price is below [spill_price], spills to the key's second
    choice when that one is cheaper, and answers DEGRADED (overload)
    from the router's own analytic fallback tier once every candidate
    has priced past [shed_price].  With a single shard, the shard's
    static high-water mark remains the shed floor.

    The router's METRICS answer is its own [rip_router_*] registry
    followed by the cluster view: every series its shards expose, under
    the shard's own name, summed over the shards (histograms merged).  A
    restarted shard's dead incarnation keeps counting in it, so the view
    never goes backwards.

    The poller doubles as the failure detector: a shard missing
    [down_after] polls stops receiving traffic, after [remove_after]
    more its arcs fall to the survivors (a counted rebalance), and a
    recovery re-adds it — both transitions remap only that shard's
    keys.  A transport failure on the request path fails over
    immediately; with no candidate left the router answers DEGRADED
    (worker lost).  The router never drops a request.

    Two tail-tolerance mechanisms sit on the request path itself:

    - {b Hedged requests}: a forward still unanswered after a delay
      derived from the p99 of recent forward round-trips
      ([hedge_delay_factor] times the p99, floored at
      [hedge_delay_floor]) is also issued to the key's failover
      candidate, and the first answer wins; the loser's late answer is
      discarded when its connection completes.  Counted as
      [rip_router_hedges_total] / [rip_router_hedge_wins_total].
    - {b Circuit breaker}, per shard: [breaker_threshold] consecutive
      transport failures open the breaker, removing the shard from the
      candidate set without waiting for the poller's slower
      failure detector.  A later successful poll half-opens it; the
      next forwarded request closes it again or snaps it back open.
      Exported as [rip_router_shard_<id>_breaker_state] (0 closed,
      1 open, 2 half-open). *)

type shard_spec = { id : string; socket : string; weight : int }

type config = {
  pool_size : int;  (** connections kept per shard *)
  request_timeout : float;  (** per-forward socket timeout, seconds *)
  poll_interval : float;  (** pricing / liveness tick, seconds *)
  vnodes_per_weight : int;
  spill_price : float;  (** primary at/above this may spill *)
  shed_price : float;  (** every candidate at/above this sheds *)
  down_after : int;  (** missed polls before a shard is down *)
  remove_after : int;  (** further misses before ring removal *)
  pricing : Pricing.config;
  solver : Rip_core.Config.t option;  (** for the local fallback tier *)
  max_frame_bytes : int;
  hedge : bool;  (** hedge slow forwards onto the failover candidate *)
  hedge_delay_floor : float;
      (** seconds; the hedge delay never drops below this, so a cold or
          cache-hit-dominated histogram cannot hedge every request *)
  hedge_delay_factor : float;
      (** hedge delay = factor x p99 of recent forward round-trips *)
  breaker_threshold : int;
      (** consecutive transport failures that open a shard's breaker *)
  tracer : Rip_obs.Trace.t option;
      (** when set, every request leaves an ingress span plus one span
          per forward attempt, and forwarded frames carry a TRACE
          context parented on the forward span — shard-side spans nest
          under it in a {!Rip_obs.Trace_merge} timeline.  A request
          arriving without a TRACE header gets a deterministic root
          context minted at ingress. *)
  spool : Rip_obs.Wide_event.spool option;
      (** when set, every request emits exactly one wide event (outcome,
          target shard, hedge/failover/spill/breaker involvement,
          deadline slack) through the spool's tail sampler *)
}

val default_config : config
(** [hedge = true], [hedge_delay_floor = 0.05],
    [hedge_delay_factor = 1.5], [breaker_threshold = 3]. *)

type t

val create : ?config:config -> shards:shard_spec list -> Rip_tech.Process.t -> t
(** @raise Invalid_argument on an empty shard list, a duplicate or
    invalid shard id, or a nonsensical config
    (thresholds must satisfy [0 < spill_price <= shed_price],
    [hedge_delay_floor >= 0], [hedge_delay_factor > 0],
    [breaker_threshold >= 1]). *)

val run : t -> Unix.file_descr -> unit
(** Serve until {!request_shutdown}; starts the poller, owns and closes
    the listener, joins every connection thread and the poller, and
    closes the shard pools. *)

val request_shutdown : t -> unit
(** Idempotent, callable from a signal handler. *)

val stopping : t -> bool
val metrics : t -> Router_metrics.t
val shard_count : t -> int

val health : t -> Rip_service.Protocol.health
(** [shard_id = "router"]; queue/high-water are sums of shard bounds. *)

val listen_unix : string -> Unix.file_descr
val listen_tcp : host:string -> port:int -> Unix.file_descr
