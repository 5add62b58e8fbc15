module Engine = Rip_engine.Engine
module Cancel = Rip_engine.Cancel
module Trace = Rip_obs.Trace
module Wide_event = Rip_obs.Wide_event
module Cpu_clock = Rip_numerics.Cpu_clock
module Rip = Rip_core.Rip
module Net = Rip_net.Net
module Zone = Rip_net.Zone
module Solution = Rip_elmore.Solution

type config = {
  shard_id : string;
  jobs : int option;
  queue_depth : int;
  high_water : int;
  cache_capacity : int;
  max_frame_bytes : int;
  solver : Rip_core.Config.t option;
  faults : Faults.t option;
  tracer : Trace.t option;
  spool : Wide_event.spool option;
  journal_dir : string option;
}

let default_config =
  {
    shard_id = "standalone";
    jobs = None;
    queue_depth = 64;
    high_water = 48;
    cache_capacity = 512;
    max_frame_bytes = Wire.default_max_frame_bytes;
    solver = None;
    faults = None;
    tracer = None;
    spool = None;
    journal_dir = None;
  }

(* --- Deadline watchdog ----------------------------------------------------

   One thread per server owns every armed deadline.  It sleeps on a
   condition while nothing is armed and otherwise polls on a 2 ms tick
   (OCaml's [Condition] has no timed wait), firing each entry's
   cancellation token once the monotonic clock passes its deadline.  The
   solve itself observes the token at DP-column / REFINE-iteration
   granularity, so cancellation latency is tick + poll granularity, both
   small against any meaningful deadline. *)

module Watchdog = struct
  type entry = { id : int; fires_at : float; token : Cancel.t }

  type t = {
    mutex : Mutex.t;
    wake : Condition.t;
    mutable armed : entry list;
    mutable stopped : bool;
    mutable next_id : int;
    mutable thread : Thread.t option;
  }

  let tick_seconds = 0.002

  let rec loop w =
    Mutex.lock w.mutex;
    while
      (match w.armed with [] -> true | _ :: _ -> false) && not w.stopped
    do
      Condition.wait w.wake w.mutex
    done;
    let stop = w.stopped in
    let now = Cpu_clock.monotonic_seconds () in
    let expired, live =
      List.partition (fun e -> e.fires_at <= now) w.armed
    in
    w.armed <- live;
    Mutex.unlock w.mutex;
    List.iter (fun e -> Cancel.cancel e.token) expired;
    if not stop then begin
      Thread.delay tick_seconds;
      loop w
    end

  let create () =
    let w =
      {
        mutex = Mutex.create ();
        wake = Condition.create ();
        armed = [];
        stopped = false;
        next_id = 0;
        thread = None;
      }
    in
    w.thread <- Some (Thread.create loop w);
    w

  let arm w ~fires_at token =
    Mutex.lock w.mutex;
    let id = w.next_id in
    w.next_id <- id + 1;
    w.armed <- { id; fires_at; token } :: w.armed;
    Condition.signal w.wake;
    Mutex.unlock w.mutex;
    id

  let disarm w id =
    Mutex.lock w.mutex;
    w.armed <- List.filter (fun e -> e.id <> id) w.armed;
    Mutex.unlock w.mutex

  let stop w =
    Mutex.lock w.mutex;
    w.stopped <- true;
    let thread = w.thread in
    w.thread <- None;
    Condition.signal w.wake;
    Mutex.unlock w.mutex;
    Option.iter Thread.join thread
end

type t = {
  process : Rip_tech.Process.t;
  config : config;
  handle : Engine.handle;
  cache : Protocol.solution Solve_cache.t;
  metrics : Metrics.t;
  watchdog : Watchdog.t;
  faults : Faults.t;
  journal : Journal.t option;
  journal_recovery : Journal.recovery option;
  mutex : Mutex.t;  (* guards in_flight, stopping, listener, threads *)
  mutable in_flight : int;
  mutable stopping : bool;
  mutable listener : Unix.file_descr option;
  mutable connection_threads : Thread.t list;
}

(* --- Journal persistence ---------------------------------------------------

   A journaled server appends every verified cache insert as
   [digest ^ body]: the MD5 the cache verifies reads against, then the
   rendered RESULT body those 16 digest bytes commit to.  Replay at boot
   recomputes the digest over the persisted body and re-parses it
   through the RESULT grammar; a record failing either check is rejected
   before anything reaches the cache — the same verify-before-serve
   contract as the live read path, so a restart admits zero
   digest-mismatched entries. *)

let digest_len = 16

let replay_solution value =
  if String.length value <= digest_len then None
  else
    let digest = String.sub value 0 digest_len in
    let body = String.sub value digest_len (String.length value - digest_len) in
    if not (String.equal (Digest.string body) digest) then None
    else
      let lines =
        (* [solution_body] terminates every line, so drop the final
           empty split. *)
        match List.rev (String.split_on_char '\n' body) with
        | "" :: rest -> List.rev rest
        | all -> List.rev all
      in
      match Protocol.parse_solution_body lines with
      | Ok solution -> Some (solution, digest)
      | Error _ -> None

let replay_journal cache journal entries =
  List.iter
    (fun (key, value) ->
      match replay_solution value with
      | Some (solution, digest) ->
          Solve_cache.add_replayed cache key solution ~digest
      | None ->
          (* Framing survived but the payload does not verify: purge the
             record from the journal's live set so compaction drops the
             bytes for good. *)
          Journal.note_evicted journal ~key)
    entries

let create ?(config = default_config) process =
  if config.queue_depth < 1 then
    invalid_arg
      (Printf.sprintf "Server.create: queue_depth %d must be at least 1"
         config.queue_depth);
  if config.high_water < 1 then
    invalid_arg
      (Printf.sprintf "Server.create: high_water %d must be at least 1"
         config.high_water);
  if config.high_water > config.queue_depth then
    invalid_arg
      (Printf.sprintf
         "Server.create: high_water %d must not exceed queue_depth %d"
         config.high_water config.queue_depth);
  if not (Protocol.valid_shard_id config.shard_id) then
    invalid_arg
      (Printf.sprintf
         "Server.create: shard_id %S must be one non-empty token over \
          [A-Za-z0-9._-]"
         config.shard_id);
  if config.max_frame_bytes < 1 then
    invalid_arg "Server.create: max_frame_bytes must be positive";
  let faults =
    match config.faults with Some f -> f | None -> Faults.disabled ()
  in
  let journal, journal_recovery =
    match config.journal_dir with
    | None -> (None, None)
    | Some dir -> (
        match Journal.open_ ~faults (Journal.default_config ~dir) with
        | Ok (journal, recovery) -> (Some journal, Some recovery)
        | Error message -> invalid_arg ("Server.create: " ^ message))
  in
  let cache = Solve_cache.create ~capacity:config.cache_capacity in
  (match journal with
  | Some journal ->
      (* Eviction feedback first, so even replay-time evictions (a
         journal holding more live records than the cache's capacity)
         reach the compaction ledger. *)
      Solve_cache.set_on_evict cache (fun key ->
          Journal.note_evicted journal ~key);
      Option.iter
        (fun (recovery : Journal.recovery) ->
          replay_journal cache journal recovery.Journal.entries)
        journal_recovery
  | None -> ());
  {
    process;
    config;
    handle = Engine.create_handle ?jobs:config.jobs ();
    cache;
    metrics =
      Metrics.create
        ~cache_stats:(fun () -> Solve_cache.stats cache)
        ?journal_stats:
          (Option.map (fun journal () -> Journal.stats journal) journal)
        ();
    watchdog = Watchdog.create ();
    faults;
    journal;
    journal_recovery;
    mutex = Mutex.create ();
    in_flight = 0;
    stopping = false;
    listener = None;
    connection_threads = [];
  }

let metrics t = t.metrics

let journal_recovery t = t.journal_recovery
let journal_flush t = Option.iter Journal.flush t.journal

let health t =
  Mutex.lock t.mutex;
  let in_flight = t.in_flight in
  Mutex.unlock t.mutex;
  {
    Protocol.health_shard_id = t.config.shard_id;
    health_in_flight = in_flight;
    health_queue_depth = t.config.queue_depth;
    health_high_water = t.config.high_water;
  }

let cache_key t ~net ~budget = Solve_cache.key ~process:t.process ~net ~budget
let corrupt_cache_entry t key = Solve_cache.corrupt t.cache key

let stopping t =
  Mutex.lock t.mutex;
  let s = t.stopping in
  Mutex.unlock t.mutex;
  s

let request_shutdown t =
  Mutex.lock t.mutex;
  let listener = t.listener in
  t.stopping <- true;
  t.listener <- None;
  Mutex.unlock t.mutex;
  (* [shutdown], not [close]: closing an fd another thread is blocked in
     [accept] on does not wake it (the in-kernel wait holds a reference),
     whereas shutting the socket down forces the accept to return.  The
     accept loop still owns the fd and closes it once it exits. *)
  match listener with
  | Some fd -> (
      try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
  | None -> ()

let shutdown t =
  request_shutdown t;
  Engine.shutdown_handle t.handle;
  Watchdog.stop t.watchdog;
  (* Clean shutdown seals the journal with its footer, so the next boot
     replays without the torn-tail repair pass. *)
  Option.iter Journal.close t.journal

(* --- Admission control ----------------------------------------------------

   A solve slot is held from submission to response.  BUSY when
   [queue_depth] solves are already in flight (or the server is draining
   for shutdown) — the bounded queue that keeps a request storm from
   growing the heap without limit.  Below BUSY sits the high-water mark:
   an admitted solve that finds the queue already deeper than
   [high_water] skips the full DP and answers from the analytic fallback
   tier, shedding load gracefully instead of letting every queued
   request wait behind the pool. *)

type admission = Rejected | Admitted of int  (* in-flight after admission *)

let try_acquire_slot t =
  Mutex.lock t.mutex;
  let admitted = (not t.stopping) && t.in_flight < t.config.queue_depth in
  if admitted then t.in_flight <- t.in_flight + 1;
  let depth = t.in_flight in
  Mutex.unlock t.mutex;
  if admitted then Metrics.set_in_flight t.metrics depth;
  if admitted then Admitted depth else Rejected

let release_slot t =
  Mutex.lock t.mutex;
  t.in_flight <- t.in_flight - 1;
  let depth = t.in_flight in
  Mutex.unlock t.mutex;
  Metrics.set_in_flight t.metrics depth

(* --- Solutions ------------------------------------------------------------ *)

let solution_of_report (report : Rip.report) =
  {
    Protocol.repeaters =
      List.map
        (fun (r : Rip_elmore.Solution.repeater) -> (r.position, r.width))
        (Rip_elmore.Solution.repeaters report.solution);
    total_width = report.total_width;
    delay = report.delay;
    power_watts = report.power_watts;
  }

let error_response error =
  let kind =
    match error with
    | Rip.Infeasible_budget _ -> Protocol.Infeasible_budget
    | Rip.Invalid_net _ -> Protocol.Invalid_net
    | Rip.Internal _ -> Protocol.Internal_error
  in
  Protocol.Error_frame
    { kind; message = Protocol.one_line (Rip.error_to_string error) }

let solution_digest solution = Digest.string (Protocol.solution_body solution)

(* --- The analytic fallback tier (see {!Fallback}) ------------------------- *)

let degraded_response t ~budget ~net reason =
  Metrics.incr_degraded t.metrics;
  Protocol.Degraded
    {
      reason;
      solution =
        Fallback.solution ~process:t.process ?solver:t.config.solver ~budget
          ~net ();
    }

(* --- Solving -------------------------------------------------------------- *)

(* A fault-injected solve delay that still honours the deadline: sleep in
   watchdog-tick chunks, aborting the moment the token fires. *)
let interruptible_delay token seconds =
  let finish = Cpu_clock.monotonic_seconds () +. seconds in
  let rec wait () =
    if Cancel.cancelled token then raise Cancel.Cancelled;
    let remaining = finish -. Cpu_clock.monotonic_seconds () in
    if remaining > 0.0 then begin
      Thread.delay (Float.min remaining Watchdog.tick_seconds);
      wait ()
    end
  in
  wait ()

type solve_outcome =
  | Solved of Rip.report
  | Failed of Rip.error
  | Cancelled_mid_solve
  | Worker_lost_mid_solve

(* Probes are always wired: each event is one or two atomic counter
   bumps, cheap enough to keep on for every solve.  Both DP backends
   report through the same [Column] event, so the counters are
   backend-independent. *)
let solver_probe t ~pruned = function
  | Rip.Dp (Rip_dp.Power_dp.Column { collected; kept; _ }) ->
      Metrics.incr_dp_columns t.metrics;
      Metrics.add_dp_labels_pruned t.metrics (collected - kept);
      ignore (Atomic.fetch_and_add pruned (collected - kept))
  | Rip.Refine (Rip_refine.Refine.Iteration _) ->
      Metrics.incr_refine_iterations t.metrics
  | Rip.Refine (Rip_refine.Refine.Newton _) ->
      Metrics.incr_newton_iterations t.metrics

let run_full_solve t ~budget ~net ~key ~trace ~pruned token =
  let tracer = t.config.tracer in
  let scope = match tracer with Some tr -> Trace.scope tr | None -> "" in
  let span_args name =
    ("span_id", Trace.span_id ~scope ~digest:key name)
    :: (match trace with Some c -> Trace.context_args c | None -> [])
  in
  let enqueued = Cpu_clock.monotonic_seconds () in
  (* Started on the connection thread, ended by the worker the moment it
     picks the job up: the span is exactly the queue wait.  The
     connection thread blocks in [map_on_handle] meanwhile, so the
     cross-thread buffer write cannot race its owner. *)
  let end_queue =
    Trace.begin_opt tracer ~cat:"service" ~args:(span_args "queue") "queue"
  in
  let phase =
    Option.map
      (fun tr name ->
        let full = "solve:" ^ name in
        Trace.begin_span tr ~cat:"solver" ~args:(span_args full) full)
      tracer
  in
  Metrics.add_queue_depth t.metrics 1;
  Fun.protect
    ~finally:(fun () -> Metrics.add_queue_depth t.metrics (-1))
    (fun () ->
      let outcomes =
        Engine.map_on_handle t.handle
          (fun () ->
            end_queue ();
            let queue_seconds = Cpu_clock.monotonic_seconds () -. enqueued in
            let cpu_started = Cpu_clock.thread_seconds () in
            let outcome =
              Trace.span tracer ~cat:"service" ~args:(span_args "solve")
                "solve"
                (fun () ->
                  try
                    (match Faults.solve_delay t.faults with
                    | Some seconds -> interruptible_delay token seconds
                    | None -> ());
                    if Faults.kill_worker t.faults then
                      raise Faults.Worker_killed;
                    match
                      Rip.solve ?config:t.config.solver
                        ~hooks:
                          (Rip_core.Hooks.make ~cancel:(Cancel.hook token)
                             ~probe:(solver_probe t ~pruned) ?phase ())
                        { Rip.process = t.process; net; geometry = None;
                          budget }
                    with
                    | Ok report -> Solved report
                    | Error error -> Failed error
                  with
                  | Cancel.Cancelled -> Cancelled_mid_solve
                  | Faults.Worker_killed -> Worker_lost_mid_solve
                  | exn -> Failed (Rip.Internal (Printexc.to_string exn)))
            in
            (outcome, queue_seconds,
             Cpu_clock.thread_seconds () -. cpu_started))
          [| () |]
      in
      outcomes.(0))

let serve_admitted t ~budget ~deadline_ms ~net ~key ~trace ~pruned ~queue_wait
    ~admitted_at =
  let token = Cancel.create () in
  let watchdog_id =
    Option.map
      (fun ms ->
        Watchdog.arm t.watchdog
          ~fires_at:(admitted_at +. (ms /. 1000.0))
          token)
      deadline_ms
  in
  Fun.protect
    ~finally:(fun () -> Option.iter (Watchdog.disarm t.watchdog) watchdog_id)
    (fun () ->
      let outcome, queue_seconds, cpu_seconds =
        run_full_solve t ~budget ~net ~key ~trace ~pruned token
      in
      queue_wait := queue_seconds;
      Metrics.add_solve_times t.metrics ~queue_seconds ~cpu_seconds;
      match outcome with
      | Solved report ->
          (* A solve that completed before the watchdog's cancellation was
             observed wins over the deadline: the work is already paid
             for and the full answer strictly dominates the fallback. *)
          let solution = solution_of_report report in
          let body = Protocol.solution_body solution in
          let digest = Digest.string body in
          Solve_cache.add_verified t.cache key solution ~digest;
          (* Journal the good bytes before any fault can corrupt the
             in-memory entry: durability must persist what was solved,
             not what a fault plan mangled. *)
          (match t.journal with
          | Some journal -> Journal.append journal ~key ~value:(digest ^ body)
          | None -> ());
          if Faults.corrupt_cache t.faults then
            ignore (Solve_cache.corrupt t.cache key);
          Metrics.incr_solved t.metrics;
          Protocol.Result { served = Fresh; solution }
      | Failed error ->
          Metrics.incr_errors t.metrics;
          error_response error
      | Cancelled_mid_solve ->
          degraded_response t ~budget ~net Protocol.Deadline_exceeded
      | Worker_lost_mid_solve ->
          degraded_response t ~budget ~net Protocol.Worker_lost)

let serve_solve t ~budget ~deadline_ms ~trace ~net =
  let started = Cpu_clock.monotonic_seconds () in
  Metrics.incr_requests t.metrics;
  let key = cache_key t ~net ~budget in
  let tracer = t.config.tracer in
  let scope = match tracer with Some tr -> Trace.scope tr | None -> "" in
  (* Span ids derive from the cache key and the tracer's scope — the
     same request traced twice produces the same ids (traces diff
     across runs) while two shards tracing the same digest never
     collide.  A propagated TRACE context rides along on every span, so
     a cross-process merge can parent these under the caller's span. *)
  let span name f =
    Trace.span tracer ~cat:"service"
      ~args:
        (("span_id", Trace.span_id ~scope ~digest:key name)
        :: (match trace with Some c -> Trace.context_args c | None -> []))
      name f
  in
  let pruned = Atomic.make 0 in
  let queue_wait = ref Float.nan in
  let response =
    (* The cache is consulted before the deadline: replaying a cached
       solution is effectively free, so a cached answer always beats a
       TIMEOUT, even for a deadline that expired in transit. *)
    match
      span "cache_lookup" (fun () ->
          Solve_cache.find_verified t.cache key ~digest_of:solution_digest)
    with
    | Some solution ->
        Metrics.incr_solved t.metrics;
        Protocol.Result { served = Cached; solution }
    | None -> (
        match deadline_ms with
        | Some ms when ms <= 0.0 ->
            (* Expired at admission: answer immediately, dispatch nothing. *)
            Metrics.incr_timeouts t.metrics;
            Protocol.Timeout
        | _ -> (
            match span "admission" (fun () -> try_acquire_slot t) with
            | Rejected ->
                Metrics.incr_busy t.metrics;
                Protocol.Busy
            | Admitted depth ->
                Fun.protect
                  ~finally:(fun () -> release_slot t)
                  (fun () ->
                    if depth > t.config.high_water then
                      degraded_response t ~budget ~net Protocol.Overload
                    else
                      let admitted_at = Cpu_clock.monotonic_seconds () in
                      serve_admitted t ~budget ~deadline_ms ~net ~key ~trace
                        ~pruned ~queue_wait ~admitted_at)))
  in
  (* Exactly one wide event per SOLVE: the canonical log line the tail
     sampler and offline [rip_trace query] aggregate over. *)
  (match t.config.spool with
  | None -> ()
  | Some spool ->
      let finished = Cpu_clock.monotonic_seconds () in
      let outcome, degrade_reason, cache =
        match response with
        | Protocol.Result { served = Cached; _ } -> ("cached", "", "hit")
        | Protocol.Result { served = Fresh; _ } -> ("fresh", "", "miss")
        | Protocol.Degraded { reason; _ } ->
            ("degraded", Protocol.degrade_reason_to_string reason, "miss")
        | Protocol.Timeout -> ("timeout", "", "miss")
        | Protocol.Busy -> ("busy", "", "miss")
        | _ -> ("error", "", "miss")
      in
      let solver =
        match t.config.solver with
        | Some c -> c
        | None -> Rip_core.Config.default
      in
      Wide_event.emit spool
        {
          Wide_event.empty with
          process =
            (if String.equal scope "" then t.config.shard_id else scope);
          trace_id =
            (match trace with Some c -> c.Trace.trace_id | None -> "");
          digest = Digest.to_hex (Digest.string key);
          shard = t.config.shard_id;
          outcome;
          degrade_reason;
          cache;
          dp_backend =
            Rip_dp.Power_dp.backend_name solver.Rip_core.Config.dp.backend;
          labels_pruned = Atomic.get pruned;
          queue_wait = !queue_wait;
          latency = finished -. started;
          deadline_slack =
            (match deadline_ms with
            | None -> Float.nan
            | Some ms -> started +. (ms /. 1000.0) -. finished);
        });
  response

(* --- Connection handling -------------------------------------------------- *)

exception Connection_dropped

let handle_connection t fd =
  let wire = Wire.create ~max_frame_bytes:t.config.max_frame_bytes fd in
  let reader = Wire.reader wire in
  let send response =
    let s = Protocol.print_response response in
    match Faults.drop_after t.faults with
    | Some n when n < String.length s ->
        (* Injected transport fault: cut the response short and hang up,
           leaving the client a partial frame to recover from. *)
        Wire.write_all fd s 0 n;
        raise Connection_dropped
    | _ -> Wire.send fd s
  in
  let rec serve () =
    Wire.new_frame wire;
    match Protocol.input_request reader with
    | Ok None -> ()
    | Error message ->
        (* Framing is lost after a malformed request; answer and hang up. *)
        send (Protocol.Error_frame { kind = Protocol.Protocol_error; message })
    | Ok (Some Protocol.Ping) ->
        send Protocol.Pong;
        serve ()
    | Ok (Some Protocol.Metrics) ->
        send (Protocol.Metrics_frame (Metrics.render t.metrics));
        serve ()
    | Ok (Some Protocol.Health) ->
        send (Protocol.Health_frame (health t));
        serve ()
    | Ok (Some Protocol.Shutdown) ->
        send Protocol.Bye;
        request_shutdown t
    | Ok (Some (Protocol.Solve { budget; deadline_ms; trace; net })) ->
        let response =
          try serve_solve t ~budget ~deadline_ms ~trace ~net
          with exn ->
            Protocol.Error_frame
              {
                kind = Protocol.Internal_error;
                message = Protocol.one_line (Printexc.to_string exn);
              }
        in
        send response;
        serve ()
  in
  (* Peer-induced I/O failures (reset, early close) end the connection,
     never the server.  An oversized frame gets the typed TOOBIG answer
     before the hang-up — framing is unrecoverable after it. *)
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try serve () with
      | Unix.Unix_error _ | Sys_error _ | End_of_file | Connection_dropped ->
          ()
      | Wire.Frame_too_big -> (
          Metrics.incr_toobig t.metrics;
          try Wire.send fd (Protocol.print_response Protocol.Toobig)
          with Unix.Unix_error _ | Sys_error _ -> ()))

(* --- Accept loop ---------------------------------------------------------- *)

let run t listen_fd =
  Mutex.lock t.mutex;
  let refused = t.stopping in
  if not refused then t.listener <- Some listen_fd;
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
      | exception Unix.Unix_error _ ->
          (* The listener was shut down under us: either
             [request_shutdown] (expected) or a fatal socket error — stop
             accepting both ways. *)
          ()
    in
    accept_loop ();
    request_shutdown t;
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    Mutex.lock t.mutex;
    let threads = t.connection_threads in
    t.connection_threads <- [];
    Mutex.unlock t.mutex;
    List.iter Thread.join threads;
    Engine.shutdown_handle t.handle;
    Watchdog.stop t.watchdog;
    Option.iter Journal.close t.journal
  end

(* --- Listening sockets ---------------------------------------------------- *)

let listen_unix path =
  if Sys.file_exists path then Unix.unlink path;
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind fd (Unix.ADDR_UNIX path)
   with exn ->
     Unix.close fd;
     raise exn);
  Unix.listen fd 64;
  fd

let listen_tcp ~host ~port =
  let address =
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } ->
          failwith (Printf.sprintf "cannot resolve host %S" host)
      | { Unix.h_addr_list; _ } -> h_addr_list.(0)
      | exception Not_found ->
          failwith (Printf.sprintf "cannot resolve host %S" host))
  in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (address, port))
   with exn ->
     Unix.close fd;
     raise exn);
  Unix.listen fd 64;
  fd
