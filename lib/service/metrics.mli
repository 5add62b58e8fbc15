(** Request counters, gauges and latency histograms for one server
    instance, backed by the lock-free {!Rip_obs.Metrics} registry.

    This module is the one list of a shard's series: the METRICS verb
    renders it, and every other reader (the router's pricing and
    cluster view, rip_loadgen's reconciliation, rip_top, perfbench)
    finds a series by its name in that rendering.  Counters are mutated
    from connection threads and read from any thread without locking.
    Uptime runs on the monotonic clock — a wall-clock step must not move
    it. *)

type t

val create :
  ?cache_stats:(unit -> Solve_cache.stats) ->
  ?journal_stats:(unit -> Journal.stats) ->
  unit ->
  t
(** Fresh instruments; uptime starts now.  When [cache_stats] is given,
    the solve cache's own counts are exposed as scrape-time series
    ([rip_cache_*]; they remain owned by the cache); likewise
    [journal_stats] exposes the [rip_journal_*] family for a journaled
    server. *)

val incr_requests : t -> unit
(** One SOLVE request received (before it is classified). *)

val incr_solved : t -> unit
(** One SOLVE answered with RESULT (fresh or cached). *)

val incr_errors : t -> unit
(** One SOLVE answered with a solver ERROR. *)

val incr_busy : t -> unit
(** One SOLVE rejected with BUSY (queue full). *)

val incr_timeouts : t -> unit
(** One SOLVE answered with TIMEOUT (deadline expired before any usable
    result, including expiry at admission). *)

val incr_degraded : t -> unit
(** One SOLVE answered with a DEGRADED analytic fallback (deadline,
    overload or worker loss). *)

val incr_toobig : t -> unit
(** One request frame rejected with TOOBIG (frame byte budget). *)

val add_solve_times : t -> queue_seconds:float -> cpu_seconds:float -> unit
(** Account one fresh solve into the queue-wait and solve-CPU
    histograms (sums and percentiles both derive from them). *)

(** {1 Solver-probe counters}

    Fed by the server's {!Rip_core.Hooks} probe; they aggregate what
    the probes report per event.  All lock-free. *)

val incr_dp_columns : t -> unit
(** One DP state frontier frozen ({!Rip_dp.Power_dp.probe_event}). *)

val add_dp_labels_pruned : t -> int -> unit
(** Labels dropped at that freeze ([collected - kept]). *)

val incr_refine_iterations : t -> unit
(** One REFINE move round ({!Rip_refine.Refine.probe_event}). *)

val incr_newton_iterations : t -> unit
(** One Newton step in the KKT width solver. *)

val set_in_flight : t -> int -> unit
(** Admission slots currently held (call under the admission lock). *)

val add_queue_depth : t -> int -> unit
(** +1 when a solve enters the worker pool, -1 when it leaves. *)

val registry : t -> Rip_obs.Metrics.t
(** The underlying registry — the METRICS verb renders it. *)

val render : t -> string
(** [Rip_obs.Metrics.render (registry t)]: the Prometheus text body of a
    METRICS response. *)

val queue_wait_metric : string
(** Name of the queue-wait histogram in the exposition
    (["rip_queue_wait_seconds"]). *)

val solve_cpu_metric : string
(** Name of the solve-CPU histogram (["rip_solve_cpu_seconds"]). *)
