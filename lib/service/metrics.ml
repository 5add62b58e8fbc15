module Obs = Rip_obs.Metrics
module Cpu_clock = Rip_numerics.Cpu_clock

type t = {
  registry : Obs.t;
  requests : Obs.Counter.t;
  solved : Obs.Counter.t;
  errors : Obs.Counter.t;
  rejected_busy : Obs.Counter.t;
  timeouts : Obs.Counter.t;
  degraded : Obs.Counter.t;
  toobig : Obs.Counter.t;
  in_flight : Obs.Gauge.t;
  queue_depth : Obs.Gauge.t;
  queue_wait : Obs.Histogram.t;
  solve_cpu : Obs.Histogram.t;
  dp_columns : Obs.Counter.t;
  dp_labels_pruned : Obs.Counter.t;
  refine_iterations : Obs.Counter.t;
  newton_iterations : Obs.Counter.t;
}

let queue_wait_metric = "rip_queue_wait_seconds"
let solve_cpu_metric = "rip_solve_cpu_seconds"

let create ?cache_stats ?journal_stats () =
  let registry = Obs.create () in
  let started = Cpu_clock.monotonic_seconds () in
  let counter name help = Obs.counter registry ~name ~help in
  Obs.gauge_fn registry ~name:"rip_uptime_seconds"
    ~help:"Seconds since server start (monotonic clock)" (fun () ->
      Cpu_clock.monotonic_seconds () -. started);
  let t =
    {
      registry;
      requests = counter "rip_requests_total" "SOLVE requests received";
      solved = counter "rip_solved_total" "SOLVE requests answered RESULT";
      errors = counter "rip_errors_total" "SOLVE requests answered ERROR";
      rejected_busy = counter "rip_rejected_busy_total"
          "SOLVE requests answered BUSY";
      timeouts = counter "rip_timeouts_total"
          "SOLVE requests answered TIMEOUT";
      degraded = counter "rip_degraded_total"
          "SOLVE requests answered DEGRADED";
      toobig = counter "rip_toobig_total" "request frames answered TOOBIG";
      in_flight =
        Obs.gauge registry ~name:"rip_in_flight"
          ~help:"SOLVE requests currently holding an admission slot";
      queue_depth =
        Obs.gauge registry ~name:"rip_queue_depth"
          ~help:"solves currently queued or running in the worker pool";
      queue_wait =
        Obs.histogram registry ~name:queue_wait_metric
          ~help:"per-solve wall seconds queued behind the worker pool";
      solve_cpu =
        Obs.histogram registry ~name:solve_cpu_metric
          ~help:"per-solve thread-CPU seconds inside the solver";
      dp_columns =
        counter "rip_dp_columns_total" "DP state frontiers frozen";
      dp_labels_pruned =
        counter "rip_dp_labels_pruned_total"
          "DP labels dropped at frontier freezing (Pareto prune + cap)";
      refine_iterations =
        counter "rip_refine_iterations_total" "REFINE move rounds";
      newton_iterations =
        counter "rip_newton_iterations_total"
          "Newton steps in the KKT width solver";
    }
  in
  (* Scrape-time reads of counts the cache and journal own: monotone
     ones are counters (a cluster view carries them across a shard
     restart), the rest gauges. *)
  let expose stats register name help read =
    register registry ~name ~help (fun () -> float_of_int (read (stats ())))
  in
  (match cache_stats with
  | None -> ()
  | Some stats ->
      let counter = expose stats Obs.counter_fn
      and gauge = expose stats Obs.gauge_fn in
      counter "rip_cache_hits" "solve cache hits" (fun s -> s.Solve_cache.hits);
      counter "rip_cache_misses" "solve cache misses" (fun s ->
          s.Solve_cache.misses);
      counter "rip_cache_evictions" "solve cache LRU evictions" (fun s ->
          s.Solve_cache.evictions);
      counter "rip_cache_self_heals"
        "cache entries dropped on digest mismatch" (fun s ->
          s.Solve_cache.self_heals);
      counter "rip_cache_replayed"
        "cache entries admitted from journal replay at boot" (fun s ->
          s.Solve_cache.replayed);
      gauge "rip_cache_size" "solve cache entries" (fun s ->
          s.Solve_cache.size));
  (match journal_stats with
  | None -> ()
  | Some stats ->
      let counter = expose stats Obs.counter_fn
      and gauge = expose stats Obs.gauge_fn in
      gauge "rip_journal_bytes" "on-disk journal size" (fun s ->
          s.Journal.bytes);
      gauge "rip_journal_segments" "journal segment files" (fun s ->
          s.Journal.segments);
      gauge "rip_journal_live_entries" "journal live records" (fun s ->
          s.Journal.live_entries);
      gauge "rip_journal_dead_bytes"
        "journal bytes held by superseded or evicted records" (fun s ->
          s.Journal.dead_bytes);
      counter "rip_journal_appends" "journal records appended" (fun s ->
          s.Journal.appends);
      counter "rip_journal_fsyncs" "journal fsync batches" (fun s ->
          s.Journal.fsyncs);
      counter "rip_journal_compactions" "journal live-set rewrites" (fun s ->
          s.Journal.compactions));
  t

let incr_requests t = Obs.Counter.incr t.requests
let incr_solved t = Obs.Counter.incr t.solved
let incr_errors t = Obs.Counter.incr t.errors
let incr_busy t = Obs.Counter.incr t.rejected_busy
let incr_timeouts t = Obs.Counter.incr t.timeouts
let incr_degraded t = Obs.Counter.incr t.degraded
let incr_toobig t = Obs.Counter.incr t.toobig

let add_solve_times t ~queue_seconds ~cpu_seconds =
  Obs.Histogram.observe t.queue_wait queue_seconds;
  Obs.Histogram.observe t.solve_cpu cpu_seconds

let incr_dp_columns t = Obs.Counter.incr t.dp_columns
let add_dp_labels_pruned t n = Obs.Counter.add t.dp_labels_pruned n
let incr_refine_iterations t = Obs.Counter.incr t.refine_iterations
let incr_newton_iterations t = Obs.Counter.incr t.newton_iterations
let set_in_flight t n = Obs.Gauge.set t.in_flight (float_of_int n)
let add_queue_depth t delta = Obs.Gauge.add t.queue_depth (float_of_int delta)
let render t = Obs.render t.registry
