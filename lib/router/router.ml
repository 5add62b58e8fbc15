(* The cluster front end: one listening socket, N rip_serviced shards.

   Requests route by consistent-hashing the net's canonical digest over
   the shard ring — the same net always lands on the same shard, so
   each shard's LRU solve cache stays hot for its own key range instead
   of every shard caching a diluted copy of everything.

   Admission is price-based rather than a static high-water mark.  A
   poller thread scrapes each shard's METRICS on a fixed tick, feeds the
   delta to the shard's {!Pricing} controller, and the resulting prices
   drive three-way decisions on the request path:

     - primary price below [spill_price]       -> forward to the primary
     - primary expensive, second choice cheaper -> spill to the second
       choice (the next distinct shard clockwise, so no third shard's
       key range is disturbed)
     - every candidate above [shed_price]       -> answer DEGRADED
       (overload) from the router's own analytic fallback tier rather
       than queue behind a saturated cluster

   With a single shard there is no spill target and pricing alone would
   shed too eagerly, so the shard's static high-water mark keeps its
   original role as the floor: the router only sheds when the price
   says so *and* the shard's last-reported in-flight count is at or
   past its high-water mark.

   The same poller doubles as the failure detector.  A shard that
   misses [down_after] consecutive polls is marked down (no longer a
   forward target); after [remove_after] further misses it is removed
   from the ring so its keyspace arcs fall to the survivors (a
   rebalance, counted).  A recovered shard is re-added, reclaiming
   exactly its old arcs — consistent hashing makes both transitions
   minimal.  A transport failure on the request path fails over to the
   other candidate immediately; when no candidate is left the router
   answers DEGRADED (worker lost) locally.  The router never drops a
   request on the floor. *)

module Client = Rip_service.Client
module Protocol = Rip_service.Protocol
module Wire = Rip_service.Wire
module Fallback = Rip_service.Fallback
module Obs = Rip_obs.Metrics
module Trace = Rip_obs.Trace
module Wide_event = Rip_obs.Wide_event
module Cpu_clock = Rip_numerics.Cpu_clock
module Net = Rip_net.Net

type shard_spec = { id : string; socket : string; weight : int }

type config = {
  pool_size : int;  (* connections kept per shard *)
  request_timeout : float;  (* per-forward socket timeout, seconds *)
  poll_interval : float;  (* pricing / liveness tick, seconds *)
  vnodes_per_weight : int;
  spill_price : float;  (* primary above this may spill *)
  shed_price : float;  (* every candidate above this sheds *)
  down_after : int;  (* missed polls before a shard is down *)
  remove_after : int;  (* further misses before ring removal *)
  pricing : Pricing.config;
  solver : Rip_core.Config.t option;  (* for the local fallback tier *)
  max_frame_bytes : int;
  hedge : bool;  (* hedge slow forwards onto the spill target *)
  hedge_delay_floor : float;  (* seconds; hedge delay never below this *)
  hedge_delay_factor : float;  (* hedge delay = factor * forward p99 *)
  breaker_threshold : int;  (* consecutive transport failures to open *)
  tracer : Trace.t option;  (* ingress/forward spans + TRACE propagation *)
  spool : Wide_event.spool option;  (* one wide event per request *)
}

let default_config =
  {
    pool_size = 8;
    request_timeout = 60.0;
    poll_interval = 0.25;
    vnodes_per_weight = Ring.default_vnodes_per_weight;
    spill_price = 4.0;
    shed_price = 16.0;
    down_after = 2;
    remove_after = 8;
    pricing = Pricing.default_config;
    solver = None;
    max_frame_bytes = Wire.default_max_frame_bytes;
    hedge = true;
    hedge_delay_floor = 0.05;
    hedge_delay_factor = 1.5;
    breaker_threshold = 3;
    tracer = None;
    spool = None;
  }

(* The circuit breaker shadows the poller's failure detector on a much
   faster clock: the poller needs [down_after] ticks to mark a shard
   down, but [breaker_threshold] consecutive transport failures on the
   request path trip the breaker immediately, taking the shard out of
   the candidate set before more requests burn a timeout each.  A
   successful poll while open moves to half-open (the poller is the
   probe); the next forwarded request decides — success closes,
   failure re-opens. *)
type breaker_state = Breaker_closed | Breaker_open | Breaker_half_open

(* One METRICS answer of a shard.  The poller reads only its scalars;
   the whole body is parsed when the cluster view needs it. *)
type scrape = { body : string; scalars : (string * float) list }

type shard = {
  spec : shard_spec;
  pool : Client.Pool.t;
  pricing : Pricing.t;
  inst : Router_metrics.shard_instruments;
  (* The remaining fields are guarded by the router mutex. *)
  mutable up : bool;
  mutable missed_polls : int;
  mutable down_polls : int;
  mutable in_ring : bool;
  mutable last_scrape : scrape option;
      (* this incarnation's latest METRICS; None after a restart *)
  mutable last_poll_at : float;  (* monotonic; 0 before the first poll *)
  mutable queue_bound : int;  (* the shard's --queue-depth (HEALTH) *)
  mutable high_water : int;  (* the shard's --high-water (HEALTH) *)
  mutable breaker : breaker_state;
  mutable breaker_failures : int;  (* consecutive transport failures *)
}

type t = {
  process : Rip_tech.Process.t;
  config : config;
  shards : shard array;
  metrics : Router_metrics.t;
  mutex : Mutex.t;  (* ring + shard state + lifecycle *)
  seq : int Atomic.t;  (* minted-trace sequence at ingress *)
  mutable ring : Ring.t;
  mutable carried : Obs.Exposition.t;
      (* counters and histograms of dead shard incarnations: a restarted
         shard counts from zero, and adding these keeps the cluster view
         monotone, which delta reconciliation relies on *)
  mutable in_flight : int;
  mutable stopping : bool;
  mutable listener : Unix.file_descr option;
  mutable connection_threads : Thread.t list;
  mutable poller : Thread.t option;
}

let create ?(config = default_config) ~shards process =
  if List.length shards = 0 then
    invalid_arg "Router.create: at least one shard is required";
  if config.pool_size < 1 then
    invalid_arg "Router.create: pool_size must be >= 1";
  if config.poll_interval <= 0.0 then
    invalid_arg "Router.create: poll_interval must be positive";
  if config.down_after < 1 || config.remove_after < 1 then
    invalid_arg "Router.create: down_after and remove_after must be >= 1";
  if not (config.spill_price > 0.0 && config.shed_price >= config.spill_price)
  then invalid_arg "Router.create: need 0 < spill_price <= shed_price";
  if config.hedge_delay_floor < 0.0 || config.hedge_delay_factor <= 0.0 then
    invalid_arg
      "Router.create: hedge_delay_floor must be >= 0 and hedge_delay_factor \
       positive";
  if config.breaker_threshold < 1 then
    invalid_arg "Router.create: breaker_threshold must be >= 1";
  let ring =
    Ring.create ~vnodes_per_weight:config.vnodes_per_weight
      (List.map (fun s -> (s.id, s.weight)) shards)
  in
  let metrics =
    Router_metrics.create ~shard_ids:(List.map (fun s -> s.id) shards) ()
  in
  let shard_states =
    Array.of_list
      (List.map
         (fun spec ->
           let socket = spec.socket in
           {
             spec;
             pool =
               Client.Pool.create ~timeout:config.request_timeout
                 ~size:config.pool_size (fun () ->
                   Client.connect_unix socket);
             pricing = Pricing.create ~config:config.pricing ();
             inst = Router_metrics.shard metrics spec.id;
             up = true;
             missed_polls = 0;
             down_polls = 0;
             in_ring = true;
             last_scrape = None;
             last_poll_at = 0.0;
             queue_bound = 64;
             high_water = 48;
             breaker = Breaker_closed;
             breaker_failures = 0;
           })
         shards)
  in
  {
    process;
    config;
    shards = shard_states;
    metrics;
    mutex = Mutex.create ();
    seq = Atomic.make 0;
    ring;
    carried = [];
    in_flight = 0;
    stopping = false;
    listener = None;
    connection_threads = [];
    poller = None;
  }

let metrics t = t.metrics
let shard_count t = Array.length t.shards

let stopping t =
  Mutex.lock t.mutex;
  let s = t.stopping in
  Mutex.unlock t.mutex;
  s

(* --- Poller: pricing + failure detection ---------------------------------- *)

let refresh_bounds t shard =
  match Client.Pool.request shard.pool Protocol.Health with
  | Ok (Protocol.Health_frame h) ->
      Mutex.lock t.mutex;
      shard.queue_bound <- h.Protocol.health_queue_depth;
      shard.high_water <- h.Protocol.health_high_water;
      Mutex.unlock t.mutex
  | Ok _ | Error _ -> ()

let mark_recovered t shard =
  Mutex.lock t.mutex;
  let re_add = not shard.in_ring in
  shard.up <- true;
  shard.missed_polls <- 0;
  shard.down_polls <- 0;
  if re_add then begin
    t.ring <- Ring.add t.ring shard.spec.id ~weight:shard.spec.weight;
    shard.in_ring <- true
  end;
  Mutex.unlock t.mutex;
  Obs.Gauge.set shard.inst.up 1.0;
  if re_add then Obs.Counter.incr t.metrics.rebalances

(* --- Circuit breaker ------------------------------------------------------- *)

let breaker_gauge = function
  | Breaker_closed -> 0.0
  | Breaker_open -> 1.0
  | Breaker_half_open -> 2.0

(* [available] is the request path's view of a shard: poller liveness
   AND a breaker that is not open.  Half-open admits traffic — the next
   forward is the probe that decides.  Callers hold the router mutex. *)
let available shard = shard.up && shard.breaker <> Breaker_open

let shard_available t shard =
  Mutex.lock t.mutex;
  let a = available shard in
  Mutex.unlock t.mutex;
  a

let note_forward_ok t shard =
  Mutex.lock t.mutex;
  shard.breaker_failures <- 0;
  let closed = shard.breaker <> Breaker_closed in
  shard.breaker <- Breaker_closed;
  Mutex.unlock t.mutex;
  if closed then
    Obs.Gauge.set shard.inst.breaker_state (breaker_gauge Breaker_closed)

let note_forward_error t shard =
  Mutex.lock t.mutex;
  shard.breaker_failures <- shard.breaker_failures + 1;
  let opened =
    match shard.breaker with
    | Breaker_closed -> shard.breaker_failures >= t.config.breaker_threshold
    | Breaker_half_open -> true  (* the probe failed; snap back open *)
    | Breaker_open -> false
  in
  if opened then shard.breaker <- Breaker_open;
  Mutex.unlock t.mutex;
  if opened then begin
    Obs.Gauge.set shard.inst.breaker_state (breaker_gauge Breaker_open);
    Obs.Counter.incr shard.inst.breaker_opens
  end

let series scrape name =
  Option.value ~default:0.0 (List.assoc_opt name scrape.scalars)

let on_scrape t shard now scrape =
  let was_down =
    Mutex.lock t.mutex;
    let d = not shard.up in
    Mutex.unlock t.mutex;
    d
  in
  if was_down then begin
    (* Back from the dead: a new incarnation, with fresh counters and
       possibly a different configuration. *)
    refresh_bounds t shard;
    mark_recovered t shard
  end;
  Mutex.lock t.mutex;
  shard.missed_polls <- 0;
  (* An answered poll is the open breaker's probe: move to half-open so
     the next forwarded request decides (success closes, failure snaps
     back open). *)
  let half_opened =
    match shard.breaker with
    | Breaker_open ->
        shard.breaker <- Breaker_half_open;
        true
    | _ -> false
  in
  (* Restart detection: uptime or the request count went backwards —
     carry the dead incarnation's last counts so the cluster view stays
     monotone, and delta from zero. *)
  (match shard.last_scrape with
  | Some prev
    when series scrape "rip_uptime_seconds" < series prev "rip_uptime_seconds"
         || series scrape "rip_requests_total"
            < series prev "rip_requests_total" ->
      t.carried <-
        Obs.Exposition.(add t.carried (cumulative (parse prev.body)));
      shard.last_scrape <- None
  | _ -> ());
  let observation =
    let delta name =
      let prev =
        match shard.last_scrape with Some p -> series p name | None -> 0.0
      in
      int_of_float (series scrape name -. prev)
    in
    let seconds =
      if shard.last_poll_at > 0.0 then now -. shard.last_poll_at
      else t.config.poll_interval
    in
    {
      Pricing.seconds;
      completed = delta "rip_solved_total";
      degraded = delta "rip_degraded_total";
      timeouts = delta "rip_timeouts_total";
      busy = delta "rip_rejected_busy_total";
      in_flight = int_of_float (series scrape "rip_in_flight");
      queue_depth = shard.queue_bound;
    }
  in
  shard.last_scrape <- Some scrape;
  shard.last_poll_at <- now;
  let price = Pricing.observe shard.pricing observation in
  Mutex.unlock t.mutex;
  if half_opened then
    Obs.Gauge.set shard.inst.breaker_state (breaker_gauge Breaker_half_open);
  Obs.Gauge.set shard.inst.price price

let on_poll_failure t shard =
  Mutex.lock t.mutex;
  let went_down =
    shard.missed_polls <- shard.missed_polls + 1;
    shard.up && shard.missed_polls >= t.config.down_after
  in
  if went_down then begin
    shard.up <- false;
    shard.down_polls <- 0
  end
  else if not shard.up then shard.down_polls <- shard.down_polls + 1;
  let removed =
    if
      (not shard.up) && shard.in_ring
      && shard.down_polls >= t.config.remove_after
    then begin
      t.ring <- Ring.remove t.ring shard.spec.id;
      shard.in_ring <- false;
      true
    end
    else false
  in
  Mutex.unlock t.mutex;
  if went_down then Obs.Gauge.set shard.inst.up 0.0;
  if removed then Obs.Counter.incr t.metrics.rebalances

let scrape shard =
  match Client.Pool.request shard.pool Protocol.Metrics with
  | Ok (Protocol.Metrics_frame body) ->
      Some { body; scalars = Obs.parse_scalars body }
  | Ok _ | Error _ -> None

let poll_shard t shard =
  let now = Cpu_clock.monotonic_seconds () in
  match scrape shard with
  | Some scrape -> on_scrape t shard now scrape
  | None -> on_poll_failure t shard

let rec poll_loop t =
  if not (stopping t) then begin
    Array.iter
      (fun shard ->
        let never_polled =
          Mutex.lock t.mutex;
          let b = shard.last_poll_at <= 0.0 && shard.up in
          Mutex.unlock t.mutex;
          b
        in
        if never_polled then refresh_bounds t shard;
        poll_shard t shard)
      t.shards;
    Thread.delay t.config.poll_interval;
    poll_loop t
  end

(* --- Local degraded answers ------------------------------------------------ *)

let degraded_response t ~budget ~net ~shed reason =
  Obs.Counter.incr t.metrics.local_degraded;
  if shed then Obs.Counter.incr t.metrics.shed;
  Protocol.Degraded
    {
      reason;
      solution =
        Fallback.solution ~process:t.process ?solver:t.config.solver ~budget
          ~net ();
    }

(* --- Request routing ------------------------------------------------------- *)

let find_shard t id =
  let found = ref None in
  Array.iter
    (fun s -> if String.equal s.spec.id id then found := Some s)
    t.shards;
  match !found with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Router: unknown shard %s" id)

type routing =
  | Forward of {
      target : shard;
      failover : shard option;
      spilled : bool;
      breaker_skip : bool;  (* the key's primary was skipped breaker-open *)
    }
  | Shed
  | No_candidate

(* The shard's original static mark keeps its role as the pricing
   floor: with a single shard there is no spill target and a young
   price controller would shed too eagerly, so shedding additionally
   requires the shard's last-reported in-flight count to have reached
   its high-water mark. *)
let floor_reached shard =
  match shard.last_scrape with
  | Some s -> int_of_float (series s "rip_in_flight") >= shard.high_water
  | None -> false

let route t key =
  Mutex.lock t.mutex;
  let decision =
    match Ring.lookup_pair t.ring key with
    | None -> No_candidate
    | Some (primary_id, secondary_id) -> (
        let primary = find_shard t primary_id in
        let secondary = Option.map (find_shard t) secondary_id in
        let secondary_up =
          match secondary with Some s when available s -> Some s | _ -> None
        in
        if not (available primary) then
          match secondary_up with
          | Some s ->
              Forward
                {
                  target = s;
                  failover = None;
                  spilled = false;
                  breaker_skip = primary.breaker = Breaker_open;
                }
          | None -> No_candidate
        else
          let p_primary = Pricing.price primary.pricing in
          let target, failover, spilled =
            if p_primary < t.config.spill_price then
              (primary, secondary_up, false)
            else
              match secondary_up with
              | Some s when Pricing.price s.pricing < p_primary ->
                  (s, Some primary, true)
              | _ -> (primary, secondary_up, false)
          in
          let price = Pricing.price target.pricing in
          if price >= t.config.shed_price then
            if Array.length t.shards = 1 && not (floor_reached target) then
              Forward { target; failover; spilled; breaker_skip = false }
            else Shed
          else Forward { target; failover; spilled; breaker_skip = false })
  in
  Mutex.unlock t.mutex;
  decision

let forward ?(args = []) t shard frame =
  let started = Cpu_clock.monotonic_seconds () in
  let result =
    Trace.span t.config.tracer ~cat:"router" ~args
      ("forward:" ^ shard.spec.id)
      (fun () -> Client.Pool.request shard.pool frame)
  in
  (match result with
  | Ok _ ->
      note_forward_ok t shard;
      Obs.Counter.incr shard.inst.forwarded;
      Obs.Histogram.observe t.metrics.forward_seconds
        (Cpu_clock.monotonic_seconds () -. started)
  | Error _ ->
      note_forward_error t shard;
      Obs.Counter.incr shard.inst.failovers);
  result

(* --- Hedged forwards ------------------------------------------------------- *)

(* Tail tolerance: once a forward has been in flight longer than the
   hedge delay — derived from the p99 of recent forward round-trips,
   floored so a cold histogram cannot hedge everything — the same
   request is issued to the failover candidate (the spill target, whose
   cache the key would land on anyway) and the first answer wins.  The
   loser is not torn down mid-flight: its connection completes in the
   background inside its pool slot and the late answer is discarded,
   which keeps the pool invariant (one request per checkout) intact.

   The slot poll mirrors {!Watchdog}: [Condition] has no timed wait, so
   a 2 ms tick bounds the added latency at well under the hedge delay
   floor. *)

type forward_slot = {
  slot_mutex : Mutex.t;
  mutable slot_result : (Protocol.response, string) result option;
}

(* Per-request involvement flags for the wide event; mutated only on
   the connection thread (the hedge's primary runs on its own thread
   but posts through the slot, never through this). *)
type request_obs = {
  mutable o_shard : string;
  mutable o_hedged : bool;
  mutable o_hedge_won : bool;
  mutable o_failover : bool;
}

let hedge_tick_seconds = 0.002

let hedge_delay t =
  let snapshot = Obs.Histogram.snapshot t.metrics.forward_seconds in
  Float.max t.config.hedge_delay_floor
    (t.config.hedge_delay_factor *. Obs.Histogram.quantile snapshot 0.99)

let hedged_forward t obs (primary, primary_frame, primary_args)
    (secondary, secondary_frame, secondary_args) =
  let slot = { slot_mutex = Mutex.create (); slot_result = None } in
  let post result =
    Mutex.lock slot.slot_mutex;
    slot.slot_result <- Some result;
    Mutex.unlock slot.slot_mutex
  in
  let peek () =
    Mutex.lock slot.slot_mutex;
    let r = slot.slot_result in
    Mutex.unlock slot.slot_mutex;
    r
  in
  ignore
    (Thread.create
       (fun () -> post (forward ~args:primary_args t primary primary_frame))
       ()
      : Thread.t);
  let deadline = Cpu_clock.monotonic_seconds () +. hedge_delay t in
  let rec await_primary () =
    match peek () with
    | Some result -> Some result
    | None ->
        if Cpu_clock.monotonic_seconds () >= deadline then None
        else begin
          Thread.delay hedge_tick_seconds;
          await_primary ()
        end
  in
  match await_primary () with
  | Some (Ok response) -> Ok response
  | Some (Error _) ->
      (* The primary's transport failed before the delay expired: this
         is an ordinary failover, not a hedge. *)
      obs.o_failover <- true;
      obs.o_shard <- secondary.spec.id;
      forward ~args:secondary_args t secondary secondary_frame
  | None -> (
      Obs.Counter.incr t.metrics.hedges;
      obs.o_hedged <- true;
      match forward ~args:secondary_args t secondary secondary_frame with
      | Ok response -> (
          (* First answer wins: if the primary posted while the hedge
             ran, its answer was first and is the one served. *)
          match peek () with
          | Some (Ok primary_response) -> Ok primary_response
          | Some (Error _) | None ->
              Obs.Counter.incr t.metrics.hedge_wins;
              obs.o_hedge_won <- true;
              obs.o_shard <- secondary.spec.id;
              Ok response)
      | Error _ ->
          (* The hedge lost its transport; all that is left is waiting
             out the primary, bounded by the request timeout. *)
          let give_up =
            Cpu_clock.monotonic_seconds () +. t.config.request_timeout
          in
          let rec await_outcome () =
            match peek () with
            | Some result -> result
            | None ->
                if Cpu_clock.monotonic_seconds () >= give_up then
                  Error "hedged forward: both candidates failed"
                else begin
                  Thread.delay hedge_tick_seconds;
                  await_outcome ()
                end
          in
          await_outcome ())

let serve_solve t ~budget ~deadline_ms ~trace ~net =
  let started = Cpu_clock.monotonic_seconds () in
  Obs.Counter.incr t.metrics.requests;
  let key = Net.canonical_digest net in
  let tracer = t.config.tracer in
  let scope =
    match tracer with
    | Some tr when not (String.equal (Trace.scope tr) "") -> Trace.scope tr
    | _ -> "router"
  in
  (* Ingress: propagate the client's TRACE context, or mint a
     deterministic root when observability is on — the trace id is the
     join key every downstream span and wide event carries. *)
  let context =
    match trace with
    | Some c -> Some c
    | None ->
        if Option.is_some tracer || Option.is_some t.config.spool then
          Some
            (Trace.make_context ~scope ~digest:key
               ~seq:(Atomic.fetch_and_add t.seq 1) ())
        else None
  in
  let sid name = Trace.span_id ~scope ~digest:key name in
  let span_args ~parent name =
    ("span_id", sid name)
    :: (match context with
       | Some c ->
           [ ("trace_id", c.Trace.trace_id); ("parent_span_id", parent) ]
       | None -> [])
  in
  let ingress_id = sid "ingress" in
  (* A forwarded frame carries a child context parented on that shard's
     forward span, so shard-side spans nest under the router's forward
     in the merged timeline. *)
  let frame_for shard =
    let trace =
      Option.map
        (fun c -> Trace.child c ~span_id:(sid ("forward:" ^ shard.spec.id)))
        context
    in
    Protocol.Solve { budget; deadline_ms; trace; net }
  in
  let fwd_args shard =
    span_args ~parent:ingress_id ("forward:" ^ shard.spec.id)
  in
  let obs =
    { o_shard = ""; o_hedged = false; o_hedge_won = false; o_failover = false }
  in
  let spilled_flag = ref false and breaker_flag = ref false in
  let ingress_parent =
    match context with
    | Some c -> c.Trace.parent_span_id
    | None -> Trace.root_span_id
  in
  let response =
    Trace.span tracer ~cat:"router"
      ~args:(span_args ~parent:ingress_parent "ingress")
      "ingress"
      (fun () ->
        match route t key with
        | No_candidate ->
            (* Every shard is gone; the router still answers. *)
            degraded_response t ~budget ~net ~shed:false Protocol.Worker_lost
        | Shed -> degraded_response t ~budget ~net ~shed:true Protocol.Overload
        | Forward { target; failover; spilled; breaker_skip } -> (
            obs.o_shard <- target.spec.id;
            spilled_flag := spilled;
            breaker_flag := breaker_skip;
            if spilled then Obs.Counter.incr target.inst.spills;
            let hedge_target =
              if t.config.hedge then
                match failover with
                | Some other when shard_available t other -> Some other
                | _ -> None
              else None
            in
            match hedge_target with
            | Some other -> (
                match
                  hedged_forward t obs
                    (target, frame_for target, fwd_args target)
                    (other, frame_for other, fwd_args other)
                with
                | Ok response -> response
                | Error _ ->
                    (* Both candidates were already tried inside the
                       hedge. *)
                    degraded_response t ~budget ~net ~shed:false
                      Protocol.Worker_lost)
            | None -> (
                match
                  forward ~args:(fwd_args target) t target (frame_for target)
                with
                | Ok response -> response
                | Error _ -> (
                    (* The poller will notice the death on its own tick;
                       the request fails over right now. *)
                    match failover with
                    | Some other when shard_available t other -> (
                        obs.o_failover <- true;
                        obs.o_shard <- other.spec.id;
                        match
                          forward ~args:(fwd_args other) t other
                            (frame_for other)
                        with
                        | Ok response -> response
                        | Error _ ->
                            degraded_response t ~budget ~net ~shed:false
                              Protocol.Worker_lost)
                    | _ ->
                        degraded_response t ~budget ~net ~shed:false
                          Protocol.Worker_lost))))
  in
  (* Exactly one wide event per request through the router, always kept
     by the tail sampler when anything interesting happened (degraded,
     hedged, failover, spill, breaker skip), so offline [rip_trace
     query] counts reconcile exactly with the load generator's. *)
  (match t.config.spool with
  | None -> ()
  | Some spool ->
      let finished = Cpu_clock.monotonic_seconds () in
      let outcome, degrade_reason, cache =
        match response with
        | Protocol.Result { served = Protocol.Cached; _ } ->
            ("cached", "", "hit")
        | Protocol.Result { served = Protocol.Fresh; _ } ->
            ("fresh", "", "miss")
        | Protocol.Degraded { reason; _ } ->
            ("degraded", Protocol.degrade_reason_to_string reason, "")
        | Protocol.Timeout -> ("timeout", "", "")
        | Protocol.Busy -> ("busy", "", "")
        | _ -> ("error", "", "")
      in
      Wide_event.emit spool
        {
          Wide_event.empty with
          process = scope;
          trace_id =
            (match context with Some c -> c.Trace.trace_id | None -> "");
          digest = key;
          shard = obs.o_shard;
          outcome;
          degrade_reason;
          cache;
          hedged = obs.o_hedged;
          hedge_won = obs.o_hedge_won;
          failover = obs.o_failover;
          spilled = !spilled_flag;
          breaker_skip = !breaker_flag;
          latency = finished -. started;
          deadline_slack =
            (match deadline_ms with
            | None -> Float.nan
            | Some ms -> started +. (ms /. 1000.0) -. finished);
        });
  response

(* --- Aggregated views ------------------------------------------------------ *)

(* The METRICS answer: the router's own series, then the cluster view —
   every series the shards expose, under its own name, summed over each
   shard's live scrape (its last one when it does not answer) plus the
   counts carried from dead incarnations.  Answers the router produced
   itself reached no shard; they are in rip_router_degraded_total. *)
let render_metrics t =
  let live =
    Array.map
      (fun shard ->
        match scrape shard with
        | Some s -> Some s
        | None ->
            Mutex.lock t.mutex;
            let last = shard.last_scrape in
            Mutex.unlock t.mutex;
            last)
      t.shards
  in
  Mutex.lock t.mutex;
  let carried = t.carried in
  Mutex.unlock t.mutex;
  let cluster =
    Array.fold_left
      (fun acc -> function
        | Some s -> Obs.Exposition.(add acc (parse s.body))
        | None -> acc)
      [] live
  in
  Router_metrics.render t.metrics
  ^ Obs.Exposition.render (Obs.Exposition.add cluster carried)

let health t =
  Mutex.lock t.mutex;
  let in_flight = t.in_flight in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 t.shards in
  let queue_depth = sum (fun s -> s.queue_bound) in
  let high_water = sum (fun s -> s.high_water) in
  Mutex.unlock t.mutex;
  {
    Protocol.health_shard_id = "router";
    health_in_flight = in_flight;
    health_queue_depth = queue_depth;
    health_high_water = high_water;
  }

(* --- Lifecycle ------------------------------------------------------------- *)

let request_shutdown t =
  Mutex.lock t.mutex;
  let listener = t.listener in
  t.stopping <- true;
  t.listener <- None;
  Mutex.unlock t.mutex;
  match listener with
  | Some fd -> (
      try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
  | None -> ()

(* --- Connection handling --------------------------------------------------- *)

let track_in_flight t delta =
  Mutex.lock t.mutex;
  t.in_flight <- t.in_flight + delta;
  let now = t.in_flight in
  Mutex.unlock t.mutex;
  Obs.Gauge.set t.metrics.in_flight (float_of_int now)

let handle_connection t fd =
  let wire = Wire.create ~max_frame_bytes:t.config.max_frame_bytes fd in
  let reader = Wire.reader wire in
  let send response = Wire.send fd (Protocol.print_response response) in
  let rec serve () =
    Wire.new_frame wire;
    match Protocol.input_request reader with
    | Ok None -> ()
    | Error message ->
        send (Protocol.Error_frame { kind = Protocol.Protocol_error; message })
    | Ok (Some Protocol.Ping) ->
        send Protocol.Pong;
        serve ()
    | Ok (Some Protocol.Metrics) ->
        send (Protocol.Metrics_frame (render_metrics t));
        serve ()
    | Ok (Some Protocol.Health) ->
        send (Protocol.Health_frame (health t));
        serve ()
    | Ok (Some Protocol.Shutdown) ->
        send Protocol.Bye;
        request_shutdown t
    | Ok (Some (Protocol.Solve { budget; deadline_ms; trace; net })) ->
        track_in_flight t 1;
        let response =
          Fun.protect
            ~finally:(fun () -> track_in_flight t (-1))
            (fun () ->
              try serve_solve t ~budget ~deadline_ms ~trace ~net
              with exn ->
                Protocol.Error_frame
                  {
                    kind = Protocol.Internal_error;
                    message = Protocol.one_line (Printexc.to_string exn);
                  })
        in
        send response;
        serve ()
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try serve () with
      | Unix.Unix_error _ | Sys_error _ | End_of_file -> ()
      | Wire.Frame_too_big -> (
          try Wire.send fd (Protocol.print_response Protocol.Toobig)
          with Unix.Unix_error _ | Sys_error _ -> ()))

(* --- Accept loop ----------------------------------------------------------- *)

let listen_unix = Rip_service.Server.listen_unix
let listen_tcp = Rip_service.Server.listen_tcp

let run t listen_fd =
  Mutex.lock t.mutex;
  let refused = t.stopping in
  if not refused then begin
    t.listener <- Some listen_fd;
    t.poller <- Some (Thread.create poll_loop t)
  end;
  Mutex.unlock t.mutex;
  if refused then (try Unix.close listen_fd with Unix.Unix_error _ -> ())
  else begin
    let rec accept_loop () =
      match Unix.accept ~cloexec:true listen_fd with
      | client_fd, _ ->
          (match Thread.create (fun () -> handle_connection t client_fd) () with
          | thread ->
              Mutex.lock t.mutex;
              t.connection_threads <- thread :: t.connection_threads;
              Mutex.unlock t.mutex
          | exception e ->
              (* The spawn failed, so no thread owns the fd: close it
                 here or it leaks. *)
              (try Unix.close client_fd with Unix.Unix_error _ -> ());
              raise e);
          accept_loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | exception Unix.Unix_error _ -> ()
    in
    accept_loop ();
    request_shutdown t;
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    Mutex.lock t.mutex;
    let threads = t.connection_threads in
    t.connection_threads <- [];
    let poller = t.poller in
    t.poller <- None;
    Mutex.unlock t.mutex;
    List.iter Thread.join threads;
    Option.iter Thread.join poller;
    Array.iter (fun shard -> Client.Pool.close_all shard.pool) t.shards
  end
