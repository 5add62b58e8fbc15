(** The cluster front end: one listening socket routing SOLVE traffic
    over N [rip_serviced] shards.

    Requests route by consistent-hashing the net's canonical digest
    ({!Rip_net.Net.canonical_digest}) over a weighted {!Ring}, keeping
    each shard's solve cache hot for its own key range.  The key's
    primary takes the request while it is up; its second choice is the
    failover and hedge target.  The router admits everything: overload
    is answered by the shards themselves (BUSY past their queue depth,
    DEGRADED overload past their high-water mark) and relayed as is.

    The router's METRICS answer is its own [rip_router_*] registry
    followed by the cluster view: every series its shards expose, under
    the shard's own name, summed over the shards (histograms merged).  A
    restarted shard's dead incarnation keeps counting in it, so the view
    never goes backwards.

    A poller scraping each shard's METRICS is the one failure detector:
    a shard missing [down_after] polls stops receiving traffic, after
    [remove_after] more its arcs fall to the survivors (a counted
    rebalance), and a recovery re-adds it — both transitions remap only
    that shard's keys.  Every control-plane exchange (the poll, the
    HEALTH bounds query, the METRICS answer's live per-shard scrape)
    has a socket timeout of [poll_interval * down_after], so a hung
    shard is marked down within about [down_after] bounded polls and
    the router's METRICS answer stays bounded too.  A transport failure
    on the request path fails over immediately; with no candidate left
    the router answers DEGRADED (worker lost).  The router never drops
    a request.

    {b Hedged requests}: a forward still unanswered after a delay
    derived from the p99 of recent forward round-trips
    ([hedge_delay_factor] times the p99, floored at
    [hedge_delay_floor]) is also issued to the key's failover
    candidate.  The connection thread waits on both forward sockets and
    the first answer wins; the loser's connection is closed, not
    re-pooled, and its elapsed time still feeds the p99.  A floor at or
    above [request_timeout] turns hedging off.  Counted as
    [rip_router_hedges_total] / [rip_router_hedge_wins_total]. *)

type shard_spec = { id : string; socket : string; weight : int }

type config = {
  pool_size : int;  (** connections kept per shard *)
  request_timeout : float;  (** per-forward socket timeout, seconds *)
  poll_interval : float;
      (** liveness tick, seconds; [poll_interval * down_after] is also
          the socket timeout of every control-plane exchange *)
  vnodes_per_weight : int;
  down_after : int;  (** missed polls before a shard is down *)
  remove_after : int;  (** further misses before ring removal *)
  solver : Rip_core.Config.t option;  (** for the local fallback tier *)
  max_frame_bytes : int;
  hedge_delay_floor : float;
      (** seconds; the hedge delay never drops below this, so a cold or
          cache-hit-dominated histogram cannot hedge every request *)
  hedge_delay_factor : float;
      (** hedge delay = factor x p99 of recent forward round-trips *)
  tracer : Rip_obs.Trace.t option;
      (** when set, every request leaves an ingress span plus one span
          per forward attempt, and forwarded frames carry a TRACE
          context parented on the forward span — shard-side spans nest
          under it in a {!Rip_obs.Trace_merge} timeline.  A request
          arriving without a TRACE header gets a deterministic root
          context minted at ingress. *)
  spool : Rip_obs.Wide_event.spool option;
      (** when set, every request emits exactly one wide event (outcome,
          target shard, hedge/failover involvement,
          deadline slack) through the spool's tail sampler *)
}

val default_config : config
(** [poll_interval = 0.25], [down_after = 2],
    [hedge_delay_floor = 0.05], [hedge_delay_factor = 1.5]. *)

type t

val create : ?config:config -> shards:shard_spec list -> Rip_tech.Process.t -> t
(** @raise Invalid_argument on an empty shard list, a duplicate or
    invalid shard id, or a nonsensical config ([pool_size >= 1],
    [poll_interval > 0], [down_after, remove_after >= 1],
    [hedge_delay_floor >= 0], [hedge_delay_factor > 0]). *)

val run : t -> Unix.file_descr -> unit
(** Serve until {!request_shutdown}; starts the poller, owns and closes
    the listener, joins every connection thread and the poller, and
    closes the shard pools. *)

val request_shutdown : t -> unit
(** Idempotent, callable from a signal handler. *)

val stopping : t -> bool
val metrics : t -> Router_metrics.t

val listen_unix : string -> Unix.file_descr
val listen_tcp : host:string -> port:int -> Unix.file_descr
