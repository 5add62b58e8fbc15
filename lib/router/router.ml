(* The cluster front end: one listening socket, N rip_serviced shards.

   Requests route by consistent-hashing the net's canonical digest over
   the shard ring — the same net always lands on the same shard, so
   each shard's LRU solve cache stays hot for its own key range instead
   of every shard caching a diluted copy of everything.  The key's
   primary takes the request while the poller sees it up; the next
   distinct shard clockwise is its failover and hedge target, so no
   third shard's key range is disturbed.

   The router admits everything it is sent.  Overload is the shards'
   business: each answers BUSY past its queue depth and DEGRADED
   (overload) past its high-water mark, and the router relays those
   answers as they are.

   A poller thread scrapes each shard's METRICS on a fixed tick and is
   the one failure detector.  A shard that misses [down_after]
   consecutive polls is marked down (no longer a forward target); after
   [remove_after] further misses it is removed from the ring so its
   keyspace arcs fall to the survivors (a rebalance, counted).  A
   recovered shard is re-added, reclaiming exactly its old arcs —
   consistent hashing makes both transitions minimal.  Every
   control-plane exchange (METRICS, HEALTH) runs on a connection pool
   of its own with a socket timeout of [poll_interval * down_after], so
   a hung shard costs a poll no more than the detection window it is
   judged by.

   A forward runs on the connection thread alone, which waits on the
   forward sockets themselves.  A transport failure fails over to the
   other candidate at once.  A forward still silent after the hedge
   delay is also sent to that candidate; the first answer wins and the
   loser's connection is closed.  When no candidate is left the router
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
  poll_interval : float;  (* liveness tick, seconds *)
  vnodes_per_weight : int;
  down_after : int;  (* missed polls before a shard is down *)
  remove_after : int;  (* further misses before ring removal *)
  solver : Rip_core.Config.t option;  (* for the local fallback tier *)
  max_frame_bytes : int;
  hedge_delay_floor : float;  (* seconds; hedge delay never below this *)
  hedge_delay_factor : float;  (* hedge delay = factor * forward p99 *)
  tracer : Trace.t option;  (* ingress/forward spans + TRACE propagation *)
  spool : Wide_event.spool option;  (* one wide event per request *)
}

let default_config =
  {
    pool_size = 8;
    request_timeout = 60.0;
    poll_interval = 0.25;
    vnodes_per_weight = Ring.default_vnodes_per_weight;
    down_after = 2;
    remove_after = 8;
    solver = None;
    max_frame_bytes = Wire.default_max_frame_bytes;
    hedge_delay_floor = 0.05;
    hedge_delay_factor = 1.5;
    tracer = None;
    spool = None;
  }

(* One METRICS answer of a shard.  The poller reads only its scalars;
   the whole body is parsed when the cluster view needs it. *)
type scrape = { body : string; scalars : (string * float) list }

type shard = {
  spec : shard_spec;
  pool : Client.Pool.t;  (* SOLVE forwards *)
  control : Client.Pool.t;  (* METRICS / HEALTH; timeout poll x down_after *)
  inst : Router_metrics.shard_instruments;
  (* The remaining fields are guarded by the router mutex. *)
  mutable up : bool;
  mutable missed_polls : int;
  mutable down_polls : int;
  mutable in_ring : bool;
  mutable last_scrape : scrape option;
      (* the latest METRICS answer; None until the first one *)
  mutable queue_bound : int;  (* the shard's --queue-depth (HEALTH) *)
  mutable high_water : int;  (* the shard's --high-water (HEALTH) *)
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
  if config.hedge_delay_floor < 0.0 || config.hedge_delay_factor <= 0.0 then
    invalid_arg
      "Router.create: hedge_delay_floor must be >= 0 and hedge_delay_factor \
       positive";
  let ring =
    Ring.create ~vnodes_per_weight:config.vnodes_per_weight
      (List.map (fun s -> (s.id, s.weight)) shards)
  in
  let metrics =
    Router_metrics.create ~shard_ids:(List.map (fun s -> s.id) shards) ()
  in
  let control_timeout =
    config.poll_interval *. float_of_int config.down_after
  in
  let shard_states =
    Array.of_list
      (List.map
         (fun spec ->
           let connect timeout () = Client.connect_unix ~timeout spec.socket in
           {
             spec;
             pool =
               Client.Pool.create ~size:config.pool_size
                 (connect config.request_timeout);
             control = Client.Pool.create ~size:1 (connect control_timeout);
             inst = Router_metrics.shard metrics spec.id;
             up = true;
             missed_polls = 0;
             down_polls = 0;
             in_ring = true;
             last_scrape = None;
             queue_bound = 64;
             high_water = 48;
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

let stopping t =
  Mutex.lock t.mutex;
  let s = t.stopping in
  Mutex.unlock t.mutex;
  s

(* --- Poller: failure detection ------------------------------------------- *)

let refresh_bounds t shard =
  match Client.Pool.request shard.control Protocol.Health with
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

let series scrape name =
  Option.value ~default:0.0 (List.assoc_opt name scrape.scalars)

let on_scrape t shard scrape =
  let was_down =
    Mutex.lock t.mutex;
    let d = not shard.up in
    Mutex.unlock t.mutex;
    d
  in
  if was_down then begin
    (* Back from the dead (or from a hang): possibly a new incarnation,
       with fresh counters and a different configuration, whose
       predecessor's idle forward connections are dead.  Drop them
       before traffic returns, so the next forward dials afresh instead
       of failing over. *)
    refresh_bounds t shard;
    Client.Pool.drain shard.pool;
    mark_recovered t shard
  end;
  Mutex.lock t.mutex;
  shard.missed_polls <- 0;
  (* Restart detection: uptime or the request count went backwards —
     carry the dead incarnation's last counts so the cluster view stays
     monotone. *)
  let restarted =
    match shard.last_scrape with
    | Some prev
      when series scrape "rip_uptime_seconds"
           < series prev "rip_uptime_seconds"
           || series scrape "rip_requests_total"
              < series prev "rip_requests_total" ->
        t.carried <-
          Obs.Exposition.(add t.carried (cumulative (parse prev.body)));
        true
    | _ -> false
  in
  shard.last_scrape <- Some scrape;
  Mutex.unlock t.mutex;
  if restarted then Client.Pool.drain shard.pool

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
  match Client.Pool.request shard.control Protocol.Metrics with
  | Ok (Protocol.Metrics_frame body) ->
      Some { body; scalars = Obs.parse_scalars body }
  | Ok _ | Error _ -> None

let poll_shard t shard =
  match scrape shard with
  | Some scrape -> on_scrape t shard scrape
  | None -> on_poll_failure t shard

let rec poll_loop t =
  if not (stopping t) then begin
    Array.iter
      (fun shard ->
        (* Until the shard first answers a poll, learn its bounds too. *)
        let unscraped =
          Mutex.lock t.mutex;
          let b = Option.is_none shard.last_scrape && shard.up in
          Mutex.unlock t.mutex;
          b
        in
        if unscraped then refresh_bounds t shard;
        poll_shard t shard)
      t.shards;
    Thread.delay t.config.poll_interval;
    poll_loop t
  end

(* --- Local degraded answers ------------------------------------------------ *)

(* Every candidate shard is gone: the router answers DEGRADED from its
   own analytic fallback tier rather than drop the request. *)
let worker_lost t ~budget ~net =
  Obs.Counter.incr t.metrics.local_degraded;
  Protocol.Degraded
    {
      reason = Protocol.Worker_lost;
      solution =
        Fallback.solution ~process:t.process ?solver:t.config.solver ~budget
          ~net ();
    }

(* --- Request routing ------------------------------------------------------- *)

let find_shard t id =
  match Array.find_opt (fun s -> String.equal s.spec.id id) t.shards with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Router: unknown shard %s" id)

(* The key's primary while the poller sees it up, with its second choice
   as failover; the second choice alone when the primary is down. *)
let route t key =
  Mutex.lock t.mutex;
  let decision =
    match Ring.lookup_pair t.ring key with
    | None -> None
    | Some (primary_id, secondary_id) -> (
        let primary = find_shard t primary_id in
        let secondary =
          match Option.map (find_shard t) secondary_id with
          | Some s when s.up -> Some s
          | _ -> None
        in
        if primary.up then Some (primary, secondary)
        else match secondary with Some s -> Some (s, None) | None -> None)
  in
  Mutex.unlock t.mutex;
  decision

(* --- Forwarding ------------------------------------------------------------ *)

(* Per-request involvement flags for the wide event. *)
type request_obs = {
  mutable o_shard : string;
  mutable o_hedged : bool;
  mutable o_hedge_won : bool;
  mutable o_failover : bool;
}

(* One leg of a forward: the frame written to one shard on a connection
   checked out of its pool, with the leg's forward span open. *)
type leg = {
  shard : shard;
  conn : Client.t;
  started : float;
  end_span : unit -> unit;
}

let hedge_delay t =
  let snapshot = Obs.Histogram.snapshot t.metrics.forward_seconds in
  Float.max t.config.hedge_delay_floor
    (t.config.hedge_delay_factor *. Obs.Histogram.quantile snapshot 0.99)

let observe_forward t leg =
  Obs.Histogram.observe t.metrics.forward_seconds
    (Cpu_clock.monotonic_seconds () -. leg.started)

let fail_leg leg =
  leg.end_span ();
  Client.Pool.discard leg.shard.pool leg.conn;
  Obs.Counter.incr leg.shard.inst.failovers

let send_leg t leg_for shard =
  let frame, args = leg_for shard in
  let end_span =
    Trace.begin_opt t.config.tracer ~cat:"router" ~args
      ("forward:" ^ shard.spec.id)
  in
  let started = Cpu_clock.monotonic_seconds () in
  match Client.Pool.checkout shard.pool with
  | Error _ as e ->
      end_span ();
      Obs.Counter.incr shard.inst.failovers;
      e
  | Ok conn -> (
      let leg = { shard; conn; started; end_span } in
      match Client.send conn frame with
      | Ok () -> Ok leg
      | Error _ as e ->
          fail_leg leg;
          e)

(* Read the leg's answer, blocking up to the request timeout. *)
let receive_leg t leg =
  let result = Client.receive leg.conn in
  (match result with
  | Ok _ ->
      leg.end_span ();
      Client.Pool.checkin leg.shard.pool leg.conn;
      Obs.Counter.incr leg.shard.inst.forwarded;
      observe_forward t leg
  | Error _ -> fail_leg leg);
  result

(* The losing leg of a hedge still owes an answer nobody will read, so
   its connection is closed.  Its elapsed time still feeds the forward
   histogram, so the hedge delay's p99 keeps the slow tail. *)
let drop_leg t leg =
  leg.end_span ();
  Client.Pool.discard leg.shard.pool leg.conn;
  observe_forward t leg

(* The hedge's race over the legs' sockets: the first answer wins and
   the other legs are dropped; a leg that fails leaves the race to the
   rest. *)
let rec race t obs ~backup ~deadline legs =
  let timeout = deadline -. Cpu_clock.monotonic_seconds () in
  match Client.wait ~timeout (List.map (fun l -> l.conn) legs) with
  | [] ->
      List.iter fail_leg legs;
      Error "hedged forward timed out"
  | first :: _ -> (
      let leg = List.find (fun l -> l.conn == first) legs in
      let rest = List.filter (fun l -> l != leg) legs in
      match (receive_leg t leg, rest) with
      | (Ok _ as answer), _ ->
          List.iter (drop_leg t) rest;
          if leg.shard == backup then begin
            Obs.Counter.incr t.metrics.hedge_wins;
            obs.o_hedge_won <- true;
            obs.o_shard <- backup.spec.id
          end;
          answer
      | (Error _ as e), [] -> e
      | Error _, _ -> race t obs ~backup ~deadline rest)

let failover t obs leg_for backup =
  match backup with
  | None -> Error "no failover candidate"
  | Some other ->
      obs.o_failover <- true;
      obs.o_shard <- other.spec.id;
      Result.bind (send_leg t leg_for other) (receive_leg t)

(* Forward to [target]; [backup] is the key's second choice when the
   poller sees it up.  The connection thread waits on the forward socket
   itself: an answer within the hedge delay is served, a transport
   failure fails over to [backup], and silence past the delay hedges
   onto it — the frame goes to [backup] too and the two legs race. *)
let forward t obs leg_for target backup =
  match send_leg t leg_for target with
  | Error _ -> failover t obs leg_for backup
  | Ok leg -> (
      let delay = hedge_delay t in
      match backup with
      | Some other
        when delay < t.config.request_timeout
             && List.is_empty (Client.wait ~timeout:delay [ leg.conn ]) ->
          Obs.Counter.incr t.metrics.hedges;
          obs.o_hedged <- true;
          let deadline =
            Cpu_clock.monotonic_seconds () +. t.config.request_timeout
          in
          race t obs ~backup:other ~deadline
            (match send_leg t leg_for other with
            | Ok second -> [ leg; second ]
            | Error _ -> [ leg ])
      | _ -> (
          match receive_leg t leg with
          | Ok _ as answer -> answer
          | Error _ -> failover t obs leg_for backup))

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
  let leg_for shard =
    (frame_for shard, span_args ~parent:ingress_id ("forward:" ^ shard.spec.id))
  in
  let obs =
    { o_shard = ""; o_hedged = false; o_hedge_won = false; o_failover = false }
  in
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
        | None -> worker_lost t ~budget ~net
        | Some (target, backup) -> (
            obs.o_shard <- target.spec.id;
            match forward t obs leg_for target backup with
            | Ok response -> response
            | Error _ -> worker_lost t ~budget ~net))
  in
  (* Exactly one wide event per request through the router, always kept
     by the tail sampler when anything interesting happened (degraded,
     hedged, failover), so offline [rip_trace
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
   up shard's live scrape (the last one of a down or silent shard) plus
   the counts carried from dead incarnations.  Answers the router produced
   itself reached no shard; they are in rip_router_degraded_total. *)
let render_metrics t =
  let live =
    Array.map
      (fun shard ->
        Mutex.lock t.mutex;
        let up = shard.up and last = shard.last_scrape in
        Mutex.unlock t.mutex;
        match if up then scrape shard else None with
        | Some s -> Some s
        | None -> last)
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

(* The HEALTH answer: [shard_id = "router"], queue depth and high-water
   the sums of the shards' bounds. *)
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
    Array.iter
      (fun shard ->
        Client.Pool.close_all shard.pool;
        Client.Pool.close_all shard.control)
      t.shards
  end
