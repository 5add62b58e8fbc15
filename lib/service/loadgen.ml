module Suite = Rip_workload.Suite
module Netgen = Rip_workload.Netgen
module Geometry = Rip_net.Geometry
module Net = Rip_net.Net
module Rip = Rip_core.Rip
module Stats = Rip_numerics.Stats

let workload ?(seed = Suite.default_seed) ?(distinct_nets = 8) ?(slack = 1.3)
    ?deadline_ms ?(traced = false) ~requests process =
  if distinct_nets < 1 then invalid_arg "Loadgen.workload: distinct_nets < 1";
  if requests < 0 then invalid_arg "Loadgen.workload: negative requests";
  let rng = Rip_numerics.Prng.create seed in
  let frames =
    Array.init distinct_nets (fun i ->
        let net = Netgen.generate rng ~index:(i + 1) in
        let geometry = Geometry.of_net net in
        let budget = slack *. Rip.tau_min process geometry in
        Protocol.Solve { budget; deadline_ms; trace = None; net })
  in
  Array.init requests (fun i ->
      match frames.(i mod distinct_nets) with
      | Protocol.Solve { budget; deadline_ms; trace = _; net } when traced ->
          (* Each request gets its own deterministic root context, even
             when the net repeats — the trace id is the join key across
             every process the request touches. *)
          let trace =
            Some
              (Rip_obs.Trace.make_context ~scope:"loadgen"
                 ~digest:(Net.canonical_digest net) ~seq:i ())
          in
          Protocol.Solve { budget; deadline_ms; trace; net }
      | frame -> frame)

type result = {
  sent : int;
  solved_fresh : int;
  solved_cached : int;
  degraded : int;
  timeouts : int;
  errors : int;
  busy : int;
  transport_failures : int;
  retried_transport : int;
  retried_busy : int;
  retried_timeout : int;
  verify_mismatches : int;
  wall_seconds : float;
  throughput : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

(* Cross-endpoint answer verification: the first RESULT seen for a
   given (net, budget) pins the solution bytes; every later RESULT for
   the same key — cached or fresh, from whichever shard — must match
   byte for byte.  The solver is deterministic, so a mismatch means a
   shard returned a wrong or stale answer.  DEGRADED answers are
   exempt: the fallback tier makes no bit-exactness promise. *)
type verify_store = {
  verify_mutex : Mutex.t;
  pinned : (string, string) Hashtbl.t;  (* request key -> solution digest *)
}

let verify_key ~budget net =
  Printf.sprintf "%s#%.17g" (Net.canonical_digest net) budget

(* One worker: take the next undrained request, send it through its retry
   session, time the full (retries included) round trip, classify the
   final response; stop on workload exhaustion or a final transport
   error. *)
type shared = {
  requests : Protocol.request array;
  mutex : Mutex.t;
  verify : verify_store option;
  mutable cursor : int;
  mutable sent : int;
  mutable solved_fresh : int;
  mutable solved_cached : int;
  mutable degraded : int;
  mutable timeouts : int;
  mutable errors : int;
  mutable busy : int;
  mutable transport_failures : int;
  mutable retried_transport : int;
  mutable retried_busy : int;
  mutable retried_timeout : int;
  mutable verify_mismatches : int;
  mutable latencies : float list;
}

let make_shared ?verify requests =
  {
    requests;
    mutex = Mutex.create ();
    verify;
    cursor = 0;
    sent = 0;
    solved_fresh = 0;
    solved_cached = 0;
    degraded = 0;
    timeouts = 0;
    errors = 0;
    busy = 0;
    transport_failures = 0;
    retried_transport = 0;
    retried_busy = 0;
    retried_timeout = 0;
    verify_mismatches = 0;
    latencies = [];
  }

let next_request shared =
  Mutex.lock shared.mutex;
  let index = shared.cursor in
  let frame =
    if index < Array.length shared.requests then begin
      shared.cursor <- index + 1;
      shared.sent <- shared.sent + 1;
      Some shared.requests.(index)
    end
    else None
  in
  Mutex.unlock shared.mutex;
  frame

(* Returns [true] when the answer contradicts a pinned one. *)
let check_verified store frame (solution : Protocol.solution) =
  match frame with
  | Protocol.Solve { budget; net; _ } ->
      let key = verify_key ~budget net in
      let digest = Digest.string (Protocol.solution_body solution) in
      Mutex.lock store.verify_mutex;
      let mismatch =
        match Hashtbl.find_opt store.pinned key with
        | Some pinned -> not (String.equal pinned digest)
        | None ->
            Hashtbl.replace store.pinned key digest;
            false
      in
      Mutex.unlock store.verify_mutex;
      mismatch
  | _ -> false

let record shared frame latency (outcome : Client.outcome) =
  let mismatch =
    match (shared.verify, outcome.response) with
    | Some store, Ok (Protocol.Result { solution; _ }) ->
        check_verified store frame solution
    | _ -> false
  in
  Mutex.lock shared.mutex;
  shared.latencies <- latency :: shared.latencies;
  shared.retried_transport <-
    shared.retried_transport + outcome.retried_transport;
  shared.retried_busy <- shared.retried_busy + outcome.retried_busy;
  shared.retried_timeout <- shared.retried_timeout + outcome.retried_timeout;
  if mismatch then shared.verify_mismatches <- shared.verify_mismatches + 1;
  (match outcome.response with
  | Ok (Protocol.Result { served = Protocol.Fresh; _ }) ->
      shared.solved_fresh <- shared.solved_fresh + 1
  | Ok (Protocol.Result { served = Protocol.Cached; _ }) ->
      shared.solved_cached <- shared.solved_cached + 1
  | Ok (Protocol.Degraded _) -> shared.degraded <- shared.degraded + 1
  | Ok Protocol.Timeout -> shared.timeouts <- shared.timeouts + 1
  | Ok Protocol.Busy -> shared.busy <- shared.busy + 1
  | Ok (Protocol.Error_frame _) -> shared.errors <- shared.errors + 1
  | Ok
      ( Protocol.Pong | Protocol.Bye | Protocol.Toobig
      | Protocol.Metrics_frame _ | Protocol.Health_frame _ ) ->
      (* Not a SOLVE answer; treat an off-protocol reply as an error. *)
      shared.errors <- shared.errors + 1
  | Error _ -> shared.transport_failures <- shared.transport_failures + 1);
  Mutex.unlock shared.mutex

let worker session shared () =
  let rec loop () =
    match next_request shared with
    | None -> ()
    | Some frame ->
        let started = Unix.gettimeofday () in
        let outcome = Client.request_with_retry session frame in
        record shared frame (Unix.gettimeofday () -. started) outcome;
        (match outcome.Client.response with Error _ -> () | Ok _ -> loop ())
  in
  Fun.protect ~finally:(fun () -> Client.close_session session) loop

(* The shared quantile convention ({!Stats.quantile_rank}) — the same
   one the server's histograms estimate against, so client and server
   percentiles are comparable at any sample count. *)
let result_of ~wall_seconds ~latencies (shared : shared) =
  let completed = List.length latencies in
  let percentile p =
    match latencies with [] -> 0.0 | l -> Stats.quantile p l
  in
  {
    sent = shared.sent;
    solved_fresh = shared.solved_fresh;
    solved_cached = shared.solved_cached;
    degraded = shared.degraded;
    timeouts = shared.timeouts;
    errors = shared.errors;
    busy = shared.busy;
    transport_failures = shared.transport_failures;
    retried_transport = shared.retried_transport;
    retried_busy = shared.retried_busy;
    retried_timeout = shared.retried_timeout;
    verify_mismatches = shared.verify_mismatches;
    wall_seconds;
    throughput =
      (if wall_seconds > 0.0 then float_of_int completed /. wall_seconds
       else 0.0);
    p50 = percentile 0.5;
    p95 = percentile 0.95;
    p99 = percentile 0.99;
  }

let merge_results ~wall_seconds ~all_latencies (shards : result array) =
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 shards in
  let completed = List.length all_latencies in
  let percentile p =
    match all_latencies with [] -> 0.0 | l -> Stats.quantile p l
  in
  {
    sent = sum (fun r -> r.sent);
    solved_fresh = sum (fun r -> r.solved_fresh);
    solved_cached = sum (fun r -> r.solved_cached);
    degraded = sum (fun r -> r.degraded);
    timeouts = sum (fun r -> r.timeouts);
    errors = sum (fun r -> r.errors);
    busy = sum (fun r -> r.busy);
    transport_failures = sum (fun r -> r.transport_failures);
    retried_transport = sum (fun r -> r.retried_transport);
    retried_busy = sum (fun r -> r.retried_busy);
    retried_timeout = sum (fun r -> r.retried_timeout);
    verify_mismatches = sum (fun r -> r.verify_mismatches);
    wall_seconds;
    throughput =
      (if wall_seconds > 0.0 then float_of_int completed /. wall_seconds
       else 0.0);
    p50 = percentile 0.5;
    p95 = percentile 0.95;
    p99 = percentile 0.99;
  }

type multi = { merged : result; by_endpoint : result array }

(* Endpoints drain their partitions concurrently: endpoint [e]'s
   workers only ever talk to [connects.(e)], so a shard's partition is
   served entirely by its own connections — the client-side mirror of
   the router's consistent-hash placement.  [merged] pools every
   latency sample (the cluster-level percentiles) and takes the overall
   wall clock, so its throughput is the aggregate the bench ladder
   compares across shard counts. *)
let run_multi ~connects ?route ?(connections = 4) ?policy ?(seed = 1L)
    ?(verify = false) requests =
  let endpoints = Array.length connects in
  if endpoints = 0 then invalid_arg "Loadgen.run_multi: no endpoints";
  let route =
    match route with
    | Some f -> f
    | None -> fun ~index:_ _ -> 0
  in
  let partitions = Array.make endpoints [] in
  Array.iteri
    (fun index frame ->
      let e = route ~index frame in
      if e < 0 || e >= endpoints then
        invalid_arg
          (Printf.sprintf
             "Loadgen.run_multi: route sent request %d to endpoint %d (have \
              %d)"
             index e endpoints);
      partitions.(e) <- frame :: partitions.(e))
    requests;
  let verify_store =
    if verify then
      Some { verify_mutex = Mutex.create (); pinned = Hashtbl.create 64 }
    else None
  in
  let shards =
    Array.map
      (fun part ->
        make_shared ?verify:verify_store (Array.of_list (List.rev part)))
      partitions
  in
  let started = Unix.gettimeofday () in
  let threads =
    List.concat
      (List.init endpoints (fun e ->
           let shared = shards.(e) in
           let n =
             Stdlib.max
               (if Array.length shared.requests > 0 then 1 else 0)
               (Stdlib.min connections (Array.length shared.requests))
           in
           List.init n (fun i ->
               (* One session per worker, each with its own jitter
                  stream. *)
               let session =
                 Client.session ?policy
                   ~seed:
                     (Int64.add seed
                        (Int64.of_int ((e * connections) + i)))
                   connects.(e)
               in
               Thread.create (worker session shared) ())))
  in
  List.iter Thread.join threads;
  let wall_seconds = Unix.gettimeofday () -. started in
  let by_endpoint =
    Array.map
      (fun shared ->
        result_of ~wall_seconds ~latencies:shared.latencies shared)
      shards
  in
  let all_latencies =
    Array.fold_left (fun acc s -> List.rev_append s.latencies acc) [] shards
  in
  { merged = merge_results ~wall_seconds ~all_latencies by_endpoint; by_endpoint }

let run ~connect ?(connections = 4) ?policy ?(seed = 1L) requests =
  let connections =
    Stdlib.max 1 (Stdlib.min connections (Array.length requests))
  in
  (run_multi ~connects:[| connect |] ~connections ?policy ~seed requests)
    .merged

let render (r : result) =
  Printf.sprintf
    "requests    : %d (fresh %d, cached %d, degraded %d, timeout %d, error \
     %d, busy %d, transport %d)\n\
     retries     : %d (busy %d, timeout %d, transport %d)\n\
     wall        : %.3f s\n\
     throughput  : %.1f req/s\n\
     latency p50 : %.3f ms\n\
     latency p95 : %.3f ms\n\
     latency p99 : %.3f ms\n"
    r.sent r.solved_fresh r.solved_cached r.degraded r.timeouts r.errors
    r.busy r.transport_failures
    (r.retried_busy + r.retried_timeout + r.retried_transport)
    r.retried_busy r.retried_timeout r.retried_transport r.wall_seconds
    r.throughput (r.p50 *. 1e3) (r.p95 *. 1e3) (r.p99 *. 1e3)
