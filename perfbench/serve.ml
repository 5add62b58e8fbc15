(* The serving workloads: an open-loop stream of SOLVE frames through
   rip_routerd to two rip_serviced shards (--jobs 1 each).

   - [serve-warm]: every request is a cache hit on a pre-warmed set of
     distinct (net, budget) pairs, so the solver does no work and the
     request path alone is timed: router hop, framing, Net_io parse,
     canonical digest, cache lookup, encode and write.
   - [serve-mixed]: shards journal to a fresh directory; a steady share
     of requests are new pairs (solved, cached and journaled), the rest
     repeat recent ones, with budgets spread over 1.3..2.0 tau_min. *)

module Rip = Rip_core.Rip
module Protocol = Rip_service.Protocol
module Prng = Rip_numerics.Prng

let now = Rip_numerics.Cpu_clock.monotonic_seconds
let process = Inputs.process

type spec = {
  name : string;
  journal : bool;
  ladder : float list;  (* offered rates, requests/s, ascending *)
  nominal : float;  (* the rung latency metrics are read at *)
  limit_ms : float;  (* p99 latency limit for max_rate_rps *)
  new_share : float;  (* share of requests that are new pairs *)
  warm_pairs : int;  (* distinct pairs solved during set-up *)
}

type pair = {
  net : Rip_net.Net.t;
  budget : float;
  frame : string;  (* the untraced SOLVE frame *)
  digest : string;  (* Net.canonical_digest, the routing key *)
}

(* --- Inputs -------------------------------------------------------------- *)

type inputs = {
  pairs : pair array;  (* every distinct pair the run may send *)
  warm : int;  (* pairs [0, warm) are solved during set-up *)
  stream : int array;  (* pair index of each request, in send order *)
  fingerprint : int array;
      (* the same pairs for every seed, all sent by a 20-second nominal
         window: their summed width is total_width_u *)
  tau_min_ms : float list;
}

let make_pair net tau budget_multiple =
  let budget = budget_multiple *. tau in
  {
    net;
    budget;
    frame =
      Protocol.print_request
        (Protocol.Solve { budget; deadline_ms = None; trace = None; net });
    digest = Rip_net.Net.canonical_digest net;
  }

(* The paper-suite nets with their tau_min anchors; input generation,
   not set-up (the program never sees tau_min). *)
let suite () =
  List.map
    (fun net ->
      let t0 = now () in
      let tau = Rip.tau_min process (Rip_net.Geometry.of_net net) in
      (net, tau, (now () -. t0) *. 1e3))
    (Rip_workload.Suite.nets ())

(* serve-mixed budgets, in tau_min.  The tight end (1.05-1.3) is left to
   batch: there the slowest solves come close to the router's 50 ms
   hedge floor, a hedged miss is solved twice, the duplicate holds the
   other shard's only worker, and the next miss queues behind it,
   stalling both client connections.  Identical runs then put the p99
   anywhere from about 20 to about 100 ms. *)
let mixed_lo = 1.3
let mixed_hi = 2.0

(* A serve-mixed repeat asks for a pair at least this many new pairs old
   (320 ms at the nominal rate). *)
let repeat_lag = 8

(* Budgets per net in the serve-mixed grid: 400 pairs, the new pairs
   of one 16-second nominal window at 200 req/s. *)
let grid_budgets = 20

(* Position in a group -> budget index (0 = 1.05 tau_min, the tightest):
   indices 0..4 sit at positions 0, 8, 16, 4, 12. *)
let budget_order =
  [| 0; 5; 6; 7; 3; 8; 9; 10; 1; 11; 12; 13; 4; 14; 15; 16; 2; 17; 18; 19 |]

let inputs spec ~seed ~requests =
  let rng = Inputs.rng ~salt:(Hashtbl.hash spec.name) seed in
  let nets = Array.of_list (suite ()) in
  let tau_min_ms = Array.to_list (Array.map (fun (_, _, t) -> t) nets) in
  if spec.new_share = 0.0 then begin
    (* serve-warm: a fixed set of distinct pairs, each net at the
       centres of [per_net] equal strata of 1.05..2.05 tau_min, the same
       for every seed; the seed draws only the request order, uniformly
       over the set. *)
    let per_net = spec.warm_pairs / Array.length nets in
    let pairs =
      Array.concat
        (Array.to_list
           (Array.map
              (fun (net, tau, _) ->
                Array.init per_net (fun j ->
                    make_pair net tau
                      (1.05 +. ((float_of_int j +. 0.5) /. float_of_int per_net))))
              nets))
    in
    let stream =
      Array.init requests (fun _ -> Prng.int_range rng 0 (Array.length pairs - 1))
    in
    { pairs; warm = Array.length pairs; stream;
      fingerprint = Array.init (Array.length pairs) Fun.id; tau_min_ms }
  end
  else begin
    (* serve-mixed: new pairs walk the grid of every suite net at
       [grid_budgets] budgets 1.05..2.0 tau_min, one seeded ordering of
       the grid per cycle.  Cycle 0 supplies the [warm_pairs]
       pre-warmed pairs; from cycle 1 on, cycle c scales its budgets by
       (1 + c * 1e-9): a new cache key for the same solve work.  A share
       [new_share] of requests, evenly spaced, are the next new pair, so
       a nominal window solves whole cycles: the same mix of tight and
       loose budgets for every seed.  The others repeat one of the
       recent new pairs, chosen by the seed, skipping the [repeat_lag]
       newest: a shard does not coalesce concurrent misses on one key,
       so a repeat of a pair still being solved would be a second solve,
       and the tail would hang on chance overlaps with slow solves. *)
    let grid =
      Array.concat
        (Array.to_list
           (Array.map
              (fun (net, tau, _) ->
                Array.init grid_budgets (fun k ->
                    (net, tau,
                     mixed_lo
                     +. (float_of_int k *. (mixed_hi -. mixed_lo)
                        /. float_of_int (grid_budgets - 1)))))
              nets))
    in
    let g = Array.length grid in
    assert (Array.length nets * grid_budgets = g && grid_budgets = Array.length budget_order);
    let is_new i =
      Float.to_int (float_of_int (i + 1) *. spec.new_share)
      > Float.to_int (float_of_int i *. spec.new_share)
    in
    let new_requests = Float.to_int (float_of_int requests *. spec.new_share) + 1 in
    (* A cycle is 20 groups of one pair per budget; the seed deals the
       nets to the groups column by column.  Within a group the budgets
       run in [budget_order], which keeps the five tightest (the slowest
       solves) at least four new pairs apart, so the nominal window
       times each slow solve instead of chance pile-ups of two of them
       on the two connections. *)
    let cycle c =
      let columns =
        Array.init grid_budgets (fun _ ->
            let perm = Array.init (Array.length nets) Fun.id in
            for i = Array.length perm - 1 downto 1 do
              let j = Prng.int_range rng 0 i in
              let x = perm.(i) in
              perm.(i) <- perm.(j);
              perm.(j) <- x
            done;
            perm)
      in
      Array.init g (fun i ->
          let group = i / grid_budgets and k = budget_order.(i mod grid_budgets) in
          let net, tau, m = grid.((columns.(k).(group) * grid_budgets) + k) in
          make_pair net tau (m *. (1.0 +. (float_of_int c *. 1e-9))))
    in
    let pairs =
      Array.concat
        (Array.sub (cycle 0) 0 spec.warm_pairs
        :: List.init ((new_requests / g) + 1) (fun c -> cycle (c + 1)))
    in
    let fresh = ref (spec.warm_pairs - 1) in
    let stream =
      Array.init requests (fun i ->
          if is_new i then begin
            incr fresh;
            !fresh
          end
          else
            !fresh - repeat_lag
            - Prng.int_range rng 0 (spec.warm_pairs - repeat_lag - 1))
    in
    (* Cycle 1, the new pairs of the nominal window: the whole grid. *)
    { pairs; warm = spec.warm_pairs; stream;
      fingerprint = Array.init g (fun i -> spec.warm_pairs + i); tau_min_ms }
  end

(* --- Timed windows ---------------------------------------------------------- *)

type answer_kind = Result_fresh | Result_cached | Degraded | Failed

let kind_of_answer answer =
  let header =
    match String.index_opt answer '\n' with
    | Some i -> String.sub answer 0 i
    | None -> answer
  in
  match header with
  | "RESULT fresh" -> Result_fresh
  | "RESULT cached" -> Result_cached
  | h when String.starts_with ~prefix:"DEGRADED" h -> Degraded
  | _ -> Failed

type window = {
  rate : float;
  samples : Openloop.sample array;
  pair_of : int array;  (* pair index of each sample *)
  start : float;
  stop : float;  (* last due time *)
  cpu_seconds : float;  (* cluster CPU over the window *)
  elapsed : float;  (* first due to last answer *)
}

(* Per request, from its due time; a failed answer (ERROR, BUSY, a shed
   frame, a timeout or a lost connection) never counts as fast, so it
   reads as infinitely late. *)
let latencies_ms w =
  Array.to_list
    (Array.map
       (fun s ->
         match kind_of_answer s.Openloop.answer with
         | Failed -> Float.infinity
         | _ -> Openloop.latency s *. 1000.0)
       w.samples)

let failures w =
  Array.fold_left
    (fun acc s ->
      match kind_of_answer s.Openloop.answer with Failed -> acc + 1 | _ -> acc)
    0 w.samples

(* Outside the ladder's rungs a failed answer is an oracle violation:
   the nominal and traced windows run at a rate the system sustains. *)
let failed_answers w =
  Array.to_list w.samples
  |> List.mapi (fun i s -> (w.pair_of.(i), s.Openloop.answer))
  |> List.filter_map (fun (k, answer) ->
         match kind_of_answer answer with
         | Failed ->
             let header =
               match String.index_opt answer '\n' with
               | Some i -> String.sub answer 0 i
               | None -> if answer = "" then "no answer" else answer
             in
             Some (Printf.sprintf "pair %d: failed answer (%s)" k header)
         | _ -> None)

let degraded w =
  Array.fold_left
    (fun acc s ->
      match kind_of_answer s.Openloop.answer with Degraded -> acc + 1 | _ -> acc)
    0 w.samples

let lateness_ms w =
  Array.to_list (Array.map (fun s -> Openloop.lateness s *. 1000.0) w.samples)

(* Share of requests over the latency limit; failures count as over. *)
let over_limit_share ~limit_ms w =
  let over =
    List.length (List.filter (fun l -> not (l <= limit_ms)) (latencies_ms w))
  in
  float_of_int over /. float_of_int (max 1 (Array.length w.samples))

let backlog w = Openloop.backlog_growing w.samples ~start:w.start ~stop:w.stop

(* A rung is sustained when nothing failed, at most 1 % of requests
   missed the limit (p99 <= limit) and the backlog did not grow. *)
let sustained ~limit_ms w =
  failures w = 0 && over_limit_share ~limit_ms w <= 0.01 && not (backlog w)

let ring =
  Rip_router.Ring.create (List.map (fun id -> (id, 1)) Cluster.shard_ids)

type target = Via_router | Direct

(* One open-loop window of [duration] seconds at [rate], sending the
   stream from [cursor] on.  Via the router: two connections, a request
   takes whichever is free first.  Direct: one connection to each
   shard, a request goes to the shard the router's ring would pick.
   Traced windows stamp request [i] with a TRACE context of sequence
   number [i]. *)
let run_window ?(traced = false) cluster inputs ~target ~rate ~duration ~cursor =
  let fds, conn_of =
    match target with
    | Via_router ->
        (Array.init 2 (fun _ -> Cluster.connect cluster.Cluster.router_socket), None)
    | Direct ->
        ( Array.of_list
            (List.map (fun (_, s) -> Cluster.connect s) cluster.Cluster.shard_sockets),
          Some
            (fun (p : pair) ->
              match Rip_router.Ring.lookup ring p.digest with
              | Some id when String.equal id (List.nth Cluster.shard_ids 1) -> 1
              | _ -> 0) )
  in
  Fun.protect
    ~finally:(fun () -> Array.iter (fun fd -> try Unix.close fd with _ -> ()) fds)
    (fun () ->
      let start = now () +. 0.05 in
      let samples = Openloop.schedule ~start ~rate ~duration in
      let n = Array.length samples in
      if cursor + n > Array.length inputs.stream then
        invalid_arg "Serve.run_window: request stream exhausted";
      let pair_of = Array.sub inputs.stream cursor n in
      let frames =
        Array.init n (fun i ->
            let p = inputs.pairs.(pair_of.(i)) in
            if not traced then p.frame
            else
              let trace =
                Some
                  (Rip_obs.Trace.make_context ~scope:"perfbench" ~digest:p.digest
                     ~seq:i ())
              in
              Protocol.print_request
                (Protocol.Solve { budget = p.budget; deadline_ms = None; trace; net = p.net }))
      in
      let dispatch =
        match conn_of with
        | None -> Openloop.Any_free
        | Some f ->
            let conns = Array.map (fun k -> f inputs.pairs.(k)) pair_of in
            Openloop.Fixed (fun i -> conns.(i))
      in
      let cpu0 = Cluster.cpu_seconds cluster in
      Openloop.run ~fds ~dispatch ~frame:(fun i -> frames.(i)) samples;
      let cpu1 = Cluster.cpu_seconds cluster in
      let last =
        Array.fold_left (fun acc s -> Float.max acc (if Float.is_finite s.Openloop.recv then s.Openloop.recv else acc)) start samples
      in
      {
        rate; samples; pair_of; start;
        stop = (if n = 0 then start else samples.(n - 1).Openloop.due);
        cpu_seconds = cpu1 -. cpu0;
        elapsed = last -. start;
      })

(* Solve pairs [0, warm) once each through the router, two connections
   at a time; every answer must be a fresh RESULT. *)
let prewarm cluster inputs =
  let fds = Array.init 2 (fun _ -> Cluster.connect cluster.Cluster.router_socket) in
  Fun.protect
    ~finally:(fun () -> Array.iter (fun fd -> try Unix.close fd with _ -> ()) fds)
    (fun () ->
      let start = now () in
      let samples = Openloop.schedule ~start ~rate:1e9 ~duration:(float_of_int inputs.warm /. 1e9) in
      Openloop.run ~drain:60.0 ~fds ~dispatch:Openloop.Any_free
        ~frame:(fun i -> inputs.pairs.(i).frame) samples;
      let bad =
        Array.to_list samples
        |> List.filter (fun s -> kind_of_answer s.Openloop.answer <> Result_fresh)
      in
      if bad = [] then Ok ()
      else
        Error
          (Printf.sprintf "pre-warm: %d of %d answers were not fresh RESULTs (%s)"
             (List.length bad) (Array.length samples)
             (match bad with s :: _ -> String.trim (String.sub s.Openloop.answer 0 (min 40 (String.length s.Openloop.answer))) | [] -> ""))
    )

(* --- Oracle ------------------------------------------------------------------ *)

(* The lines between a RESULT/DEGRADED header and END: the deterministic
   solution body. *)
let body_of_answer answer =
  match String.index_opt answer '\n' with
  | None -> ""
  | Some i ->
      let rest = String.sub answer (i + 1) (String.length answer - i - 1) in
      if String.ends_with ~suffix:"END\n" rest then
        String.sub rest 0 (String.length rest - 4)
      else rest

let solution_of_report (r : Rip.report) =
  {
    Protocol.repeaters =
      List.map
        (fun (x : Rip_elmore.Solution.repeater) -> (x.position, x.width))
        (Rip_elmore.Solution.repeaters r.Rip.solution);
    total_width = r.Rip.total_width;
    delay = r.Rip.delay;
    power_watts = r.Rip.power_watts;
  }

type expected = {
  body : string;  (* Protocol.solution_body of a direct Rip.solve *)
  width : float;
  record : Solver_layers.record option;
}

let solver_config = Rip_core.Config.default

(* After the timed windows: every RESULT must carry exactly the bytes of
   a direct in-process solve of its pair, and every DEGRADED answer must
   be legal and meet its budget.  Returns the in-process solves (one per
   distinct pair answered) and the violations. *)
let oracle ~traced inputs windows =
  let expected = Hashtbl.create 256 in
  let wrong = ref [] in
  let expect k =
    match Hashtbl.find_opt expected k with
    | Some e -> Some e
    | None ->
        let p = inputs.pairs.(k) in
        let problem = Rip.problem process p.net ~budget:p.budget in
        let result, record =
          if traced then
            let r, rec_ = Solver_layers.solve problem in
            (r, Some rec_)
          else (Rip.solve ~config:solver_config problem, None)
        in
        (match result with
        | Ok report ->
            let e =
              { body = Protocol.solution_body (solution_of_report report);
                width = report.Rip.total_width; record }
            in
            Hashtbl.replace expected k e;
            Some e
        | Error err ->
            wrong :=
              Printf.sprintf "pair %d: direct solve failed: %s" k
                (Rip.error_to_string err)
              :: !wrong;
            None)
  in
  List.iter
    (fun w ->
      Array.iteri
        (fun i s ->
          let k = w.pair_of.(i) in
          let p = inputs.pairs.(k) in
          match kind_of_answer s.Openloop.answer with
          | Result_fresh | Result_cached -> (
              match expect k with
              | Some e when String.equal e.body (body_of_answer s.Openloop.answer) -> ()
              | Some _ ->
                  wrong :=
                    Printf.sprintf "pair %d: RESULT differs from a direct Rip.solve" k
                    :: !wrong
              | None -> ())
          | Degraded -> (
              let lines =
                String.split_on_char '\n' (body_of_answer s.Openloop.answer)
                |> List.filter (fun l -> l <> "")
              in
              match Protocol.parse_solution_body lines with
              | Error e ->
                  wrong := Printf.sprintf "pair %d: bad DEGRADED body: %s" k e :: !wrong
              | Ok sol ->
                  let solution = Rip_elmore.Solution.create sol.Protocol.repeaters in
                  let violations =
                    Rip_core.Validate.check ~min_width:solver_config.Rip_core.Config.min_width
                      ~max_width:solver_config.Rip_core.Config.max_width process p.net
                      ~budget:p.budget solution
                  in
                  if violations <> [] || sol.Protocol.delay > p.budget then
                    wrong :=
                      Printf.sprintf "pair %d: DEGRADED answer illegal or over budget" k
                      :: !wrong)
          | Failed -> ())
        w.samples)
    windows;
  (expected, List.rev !wrong)

(* --- METRICS scrapes ------------------------------------------------------- *)

let scrape socket =
  let fd = Cluster.connect socket in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () -> body_of_answer (Openloop.round_trip fd "METRICS\n"))

type scrapes = { shards : string list; router : string }

let scrape_all cluster =
  {
    shards = List.map (fun (_, s) -> scrape s) cluster.Cluster.shard_sockets;
    router = scrape cluster.Cluster.router_socket;
  }

module Obs = Rip_obs.Metrics

let scalar text name = Option.value ~default:0.0 (Obs.scalar text name)

let shard_delta before after name =
  List.fold_left2
    (fun acc b a -> acc +. (scalar a name -. scalar b name))
    0.0 before.shards after.shards

(* Router scalars whose name starts with [prefix] and ends with [suffix]
   (the per-shard series), summed. *)
let router_sum_delta before after ~prefix ~suffix =
  let pick text =
    Obs.parse_scalars text
    |> List.filter (fun (n, _) ->
           String.starts_with ~prefix n && String.ends_with ~suffix n)
    |> List.fold_left (fun acc (_, v) -> acc +. v) 0.0
  in
  pick after.router -. pick before.router

let hist_delta texts_before texts_after name =
  let find text = List.assoc_opt name (Obs.parse_histograms text) in
  List.fold_left2
    (fun acc b a ->
      match (find b, find a) with
      | Some b, Some a -> (
          let d = Obs.Histogram.diff a b in
          match acc with None -> Some d | Some acc -> Some (Obs.Histogram.merge acc d))
      | _ -> acc)
    None texts_before texts_after

(* p50 and (where ten samples lie beyond it) p99 of a histogram delta,
   in ms. *)
let hist_ms r name snapshot =
  match snapshot with
  | None -> ()
  | Some (s : Obs.Histogram.snapshot) ->
      let n = s.Obs.Histogram.count in
      if n > 0 then begin
        Report.set r ~n (name ^ ".p50") (Obs.Histogram.quantile s 0.5 *. 1000.0);
        if Stat.supported ~n 0.99 then
          Report.set r ~n (name ^ ".p99") (Obs.Histogram.quantile s 0.99 *. 1000.0)
      end

let service_metrics r before after =
  let d = shard_delta before after in
  hist_ms r "service.queue_wait_ms"
    (hist_delta before.shards after.shards Rip_service.Metrics.queue_wait_metric);
  hist_ms r "service.solve_cpu_ms"
    (hist_delta before.shards after.shards Rip_service.Metrics.solve_cpu_metric);
  let hits = d "rip_cache_hits" and misses = d "rip_cache_misses" in
  if hits +. misses > 0.0 then
    Report.set r ~n:(int_of_float (hits +. misses)) "service.cache_hit_ratio"
      (hits /. (hits +. misses));
  Report.set r "service.busy" (d "rip_rejected_busy_total");
  Report.set r "service.degraded" (d "rip_degraded_total");
  Report.set r "service.timeouts" (d "rip_timeouts_total");
  let appends = d "rip_journal_appends" in
  Report.set r "journal.appends" appends;
  Report.set r "journal.fsyncs" (d "rip_journal_fsyncs");
  if appends > 0.0 then
    Report.set r ~n:(int_of_float appends) "journal.bytes_per_insert"
      (d "rip_journal_bytes" /. appends)

let router_metrics r before after =
  hist_ms r "router.forward_ms"
    (hist_delta [ before.router ] [ after.router ] "rip_router_forward_seconds");
  let d name = scalar after.router name -. scalar before.router name in
  let hedges = d "rip_router_hedges_total" in
  Report.set r "router.hedges" hedges;
  if hedges > 0.0 then
    Report.set r ~n:(int_of_float hedges) "router.hedge_win_ratio"
      (d "rip_router_hedge_wins_total" /. hedges);
  Report.set r "router.failovers"
    (router_sum_delta before after ~prefix:"rip_router_shard_" ~suffix:"_failovers_total");
  Report.set r "router.shed" (d "rip_router_shed_total")

(* --- In-process layer timings ------------------------------------------------ *)

(* Median per-call cost, in microseconds, of [f] over [items]: the pass
   over all items is timed as a whole (the calls are microseconds each)
   and repeated [rounds] times. *)
let rounds = 25

let per_call_us items f =
  let n = Array.length items in
  if n = 0 then (0.0, 0)
  else
    let passes =
      List.init rounds (fun _ ->
          let t0 = now () in
          Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) items;
          (now () -. t0) *. 1e6 /. float_of_int n)
    in
    (Stat.median passes, rounds * n)

(* The request path's dark layers, timed on the frames a window sent:
   what a shard (and the router) does per request besides its spans. *)
let request_path_metrics r inputs (expected : (int, expected) Hashtbl.t) w =
  let sent = Array.map (fun k -> inputs.pairs.(k)) w.pair_of in
  let set name (v, n) = Report.set r ~n name v in
  let bodies = Array.map (fun p -> Rip_net.Net_io.to_string p.net) sent in
  set "net.parse_us" (per_call_us bodies Rip_net.Net_io.parse_string);
  set "net.digest_us" (per_call_us sent (fun p -> Rip_net.Net.canonical_digest p.net));
  set "net.geometry_us" (per_call_us sent (fun p -> Rip_net.Geometry.of_net p.net));
  set "protocol.parse_us"
    (per_call_us sent (fun p ->
         Protocol.input_request
           (Protocol.reader_of_lines (String.split_on_char '\n' p.frame))));
  let responses =
    Array.to_list w.pair_of
    |> List.filter_map (fun k -> Option.map (fun e -> (k, e)) (Hashtbl.find_opt expected k))
    |> List.filter_map (fun (_, e) ->
           match
             Protocol.parse_solution_body
               (List.filter (fun l -> l <> "") (String.split_on_char '\n' e.body))
           with
           | Ok solution -> Some (Protocol.Result { served = Protocol.Cached; solution })
           | Error _ -> None)
    |> Array.of_list
  in
  set "protocol.encode_us" (per_call_us responses Protocol.print_response);
  (* A cache holding the window's answers, read the way a shard reads
     it: canonical key, then a digest-verified lookup. *)
  let cache = Rip_service.Solve_cache.create ~capacity:4096 in
  let keys =
    Array.map
      (fun p -> Rip_service.Solve_cache.key ~process ~net:p.net ~budget:p.budget)
      sent
  in
  Array.iteri
    (fun i k ->
      match Hashtbl.find_opt expected w.pair_of.(i) with
      | Some e ->
          Rip_service.Solve_cache.add_verified cache k e.body ~digest:(Digest.string e.body)
      | None -> ())
    keys;
  set "cache.find_us"
    (per_call_us keys (fun k ->
         Rip_service.Solve_cache.find_verified cache k ~digest_of:Digest.string));
  set "router.ring_lookup_us"
    (per_call_us sent (fun p -> Rip_router.Ring.lookup_pair ring p.digest))

(* --- Trace dumps ------------------------------------------------------------- *)

let layer_of name =
  match name with
  | "ingress" -> Some "router.ingress"
  | n when String.starts_with ~prefix:"forward:" n -> Some "router.forward"
  | "cache_lookup" -> Some "service.cache_lookup"
  | "admission" -> Some "service.admission"
  | "queue" -> Some "service.queue"
  | "solve" -> Some "service.solve"
  | n when String.starts_with ~prefix:"solve:" n ->
      Some ("solver." ^ String.sub n 6 (String.length n - 6))
  | n when String.starts_with ~prefix:"engine" n -> Some "engine"
  | _ -> None

module Json = Rip_obs.Json

(* Spans of every dump in [dir], grouped by trace id, on absolute
   monotonic time. *)
let load_traces dir =
  let files =
    try
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".json")
    with Sys_error _ -> []
  in
  let by_trace = Hashtbl.create 1024 in
  List.iter
    (fun f ->
      match Rip_obs.Trace_merge.load_file (Filename.concat dir f) with
      | Error _ -> ()
      | Ok dump ->
          List.iter
            (fun ev ->
              let str k = Option.bind (Json.member k ev) Json.string_value in
              let num k = Option.bind (Json.member k ev) Json.float_value in
              match (str "ph", str "name", num "ts", num "dur", Json.member "args" ev) with
              | Some "X", Some name, Some ts, Some dur, Some args -> (
                  match Option.bind (Json.member "trace_id" args) Json.string_value with
                  | Some tid ->
                      let start = (dump.Rip_obs.Trace_merge.epoch_us +. ts) /. 1e6 in
                      let span = { Budget.name; start; stop = start +. (dur /. 1e6) } in
                      Hashtbl.replace by_trace tid
                        (span :: Option.value ~default:[] (Hashtbl.find_opt by_trace tid))
                  | None -> ())
              | _ -> ())
            dump.Rip_obs.Trace_merge.events)
    files;
  (List.length files, by_trace)

(* --- Runs ---------------------------------------------------------------------- *)

exception Setup_failed of string

(* Spawn a cluster and pre-warm it; the cluster is torn down again if
   either step fails. *)
let start_cluster ?(traced = false) spec inputs =
  match Cluster.start ~journal:spec.journal ~traced () with
  | Error (e, c) ->
      let tail = Cluster.log_tail c in
      Cluster.teardown c;
      raise (Setup_failed (String.concat "\n" (e :: tail)))
  | Ok c -> (
      match prewarm c inputs with
      | Ok () -> c
      | Error e ->
          let tail = Cluster.log_tail c in
          Cluster.teardown c;
          raise (Setup_failed (String.concat "\n" (e :: tail))))

let p50 w = Stat.median (latencies_ms w)

let window_note label w =
  let l = latencies_ms w in
  Printf.sprintf
    "%s: %.0f req/s offered, n=%d, p50 %.3f ms, p99 %.3f ms, generator late p99 %.3f ms, \
     backlog growth %.1f, failed %d, degraded %d"
    label w.rate (Array.length w.samples) (Stat.median l) (Stat.quantile 0.99 l)
    (Stat.quantile 0.99 (lateness_ms w))
    (Openloop.backlog_growth w.samples ~start:w.start ~stop:w.stop)
    (failures w) (degraded w)

(* The generator fell behind when it issued the typical request late:
   its own scheduling, not the system, then shaped the offered load. *)
let generator_behind w = Stat.median (lateness_ms w) > 1.0

(* Latency quantile of the nominal window, robust to stalls of the host:
   the window is cut into blocks of at least 1000 consecutive requests,
   and the quantile is the median of the blocks' quantiles over the
   blocks in which the generator itself stayed punctual (woke at most
   [host_stall_ms] late for 99 % of its requests), or over all blocks
   when none did.  Which blocks count is decided by the generator's
   lateness alone, never by the system's latencies. *)
let host_stall_ms = 2.0

let nominal_quantile q w =
  let blocks = Stat.blocks (List.combine (latencies_ms w) (lateness_ms w)) in
  let punctual =
    List.filter
      (fun b -> Stat.quantile 0.99 (List.map snd b) <= host_stall_ms)
      blocks
  in
  Stat.median
    (List.map
       (fun b -> Stat.quantile q (List.map fst b))
       (if punctual = [] then blocks else punctual))

let nominal_share = 0.8 (* of --seconds, the nominal window *)
let rung_share = 0.05 (* of --seconds, per ladder window *)

(* Enough requests for the nominal window and every rung tried twice. *)
let requests_for spec ~seconds =
  let rungs = List.fold_left ( +. ) 0.0 spec.ladder in
  int_of_float
    ((spec.nominal *. seconds *. nominal_share) +. (rungs *. seconds *. rung_share *. 2.0))
  + 1000

(* Ladder: the nominal window is the nominal rung; climb from there
   while rungs are sustained (a failing rung is retried once before it
   counts), or descend when the nominal rung itself is not. *)
let climb spec r c inputs ~rung_seconds ~cursor ~nominal_window =
  let attempt rate =
    let w =
      run_window c inputs ~target:Via_router ~rate ~duration:rung_seconds ~cursor:!cursor
    in
    cursor := !cursor + Array.length w.samples;
    Report.note r (window_note "rung" w);
    (w, sustained ~limit_ms:spec.limit_ms w)
  in
  let confirmed rate =
    let w, ok = attempt rate in
    if ok then ([ w ], true)
    else
      let w', ok' = attempt rate in
      ([ w; w' ], ok')
  in
  let above = List.filter (fun x -> x > spec.nominal) spec.ladder in
  let below = List.rev (List.filter (fun x -> x < spec.nominal) spec.ladder) in
  let rec up best acc = function
    | [] -> (best, acc)
    | rate :: rest ->
        let ws, ok = confirmed rate in
        if ok then up rate (acc @ ws) rest else (best, acc @ ws)
  in
  let rec down acc = function
    | [] -> (0.0, acc)
    | rate :: rest ->
        let ws, ok = confirmed rate in
        if ok then (rate, acc @ ws) else down (acc @ ws) rest
  in
  if sustained ~limit_ms:spec.limit_ms nominal_window then up spec.nominal [] above
  else down [] below

(* [wrong] holds the oracle's violations and every failed answer of the
   [gated] windows; a failure on a ladder rung only decides whether the
   rung is sustained, so it counts in [failed] alone. *)
let record_counts r ~gated ~rungs ~wrong =
  let windows = gated @ rungs in
  let attempted = List.fold_left (fun acc w -> acc + Array.length w.samples) 0 windows in
  let rung_failures = List.fold_left (fun acc w -> acc + failures w) 0 rungs in
  let deg = List.fold_left (fun acc w -> acc + degraded w) 0 windows in
  r.Report.attempted <- attempted;
  r.Report.failed <- rung_failures + List.length wrong;
  List.iter (Report.wrong r) wrong;
  let frac x = float_of_int x /. float_of_int (max 1 attempted) in
  Report.set r ~n:attempted "failed_frac" (frac r.Report.failed);
  Report.set r ~n:attempted "degraded_frac" (frac deg)

let check_validity r w =
  let late = lateness_ms w in
  Report.set r ~n:(List.length late) "generator.late_ms.p99" (Stat.quantile 0.99 late);
  if generator_behind w then
    Report.invalid r
      (Printf.sprintf "generator fell behind at %.0f req/s (late p50 %.3f ms, p99 %.3f ms)"
         w.rate (Stat.median late) (Stat.quantile 0.99 late))

(* Summed width of the fingerprint pairs window [w] sent, and how many
   it sent. *)
let fingerprint_width inputs expected w =
  let sent = Hashtbl.create 512 in
  Array.iter (fun k -> Hashtbl.replace sent k ()) w.pair_of;
  Array.fold_left
    (fun (width, n) k ->
      match (Hashtbl.mem sent k, Hashtbl.find_opt expected k) with
      | true, Some e -> (width +. e.width, n + 1)
      | _ -> (width, n))
    (0.0, 0) inputs.fingerprint

(* After an end-to-end run's windows: the oracle, the width fingerprint
   and the counts.  Any failed answer in the nominal window is wrong. *)
let judge r inputs ~nominal ~rungs =
  let expected, wrong = oracle ~traced:false inputs (nominal :: rungs) in
  let width, sent = fingerprint_width inputs expected nominal in
  Report.set r ~n:sent "total_width_u" width;
  record_counts r ~gated:[ nominal ] ~rungs ~wrong:(wrong @ failed_answers nominal)

(* End-to-end run: [setup_runs] timed set-ups (the last cluster is
   kept), the nominal window, the ladder, then the oracle. *)
let setup_runs = 5

let run_e2e spec r ~seed ~seconds =
  let inputs = inputs spec ~seed ~requests:(requests_for spec ~seconds) in
  let setups, cluster =
    let rec go k acc =
      let t0 = now () in
      let c = start_cluster spec inputs in
      let dt = now () -. t0 in
      if k = 1 then (dt :: acc, c)
      else begin
        Cluster.teardown c;
        go (k - 1) (dt :: acc)
      end
    in
    go setup_runs []
  in
  Report.set r ~n:setup_runs "setup_s" (Stat.median setups);
  Report.note r
    ("set-ups (s): " ^ String.concat " " (List.map (Printf.sprintf "%.4f") (List.rev setups)));
  Fun.protect
    ~finally:(fun () -> Cluster.teardown cluster)
    (fun () ->
      let nominal =
        run_window cluster inputs ~target:Via_router ~rate:spec.nominal
          ~duration:(seconds *. nominal_share) ~cursor:0
      in
      let cursor = ref (Array.length nominal.samples) in
      Report.note r (window_note "nominal" nominal);
      Report.set r ~n:3 "peak_rss_mb" (Cluster.peak_rss_mb cluster);
      Report.note r
        (String.concat ", "
           (List.map
              (fun p ->
                Printf.sprintf "%s VmHWM %.2f MB" p.Cluster.name
                  (Option.value ~default:0.0 (Proc.peak_rss_mb p.Cluster.pid)))
              cluster.Cluster.procs));
      let lat = latencies_ms nominal in
      let n = List.length lat in
      Report.set r ~n "latency_p50_ms" (nominal_quantile 0.5 nominal);
      if Stat.supported ~n 0.99 then
        Report.set r ~n "latency_p99_ms" (nominal_quantile 0.99 nominal);
      let answered = n - failures nominal in
      Report.set r ~n:answered "solves_per_s" (float_of_int answered /. nominal.elapsed);
      Report.set r ~n:answered "cpu_ms_per_op"
        (nominal.cpu_seconds *. 1000.0 /. float_of_int (max 1 answered));
      check_validity r nominal;
      let max_rate, rungs =
        climb spec r cluster inputs ~rung_seconds:(seconds *. rung_share) ~cursor
          ~nominal_window:nominal
      in
      Report.set r ~n:(1 + List.length rungs) "max_rate_rps" max_rate;
      judge r inputs ~nominal ~rungs)

(* Traced run: per-layer numbers.  An untraced cluster gives the METRICS
   deltas, the via-router p50 and the direct-to-shard p50 on the same
   frames; a traced cluster (router and shards with --trace-out) gives
   the span budget and the tracing overhead. *)
let run_traced spec r ~seed ~seconds =
  let inputs = inputs spec ~seed ~requests:(requests_for spec ~seconds) in
  let half = seconds *. 0.5 in
  let plain = start_cluster spec inputs in
  let via, direct =
    Fun.protect
      ~finally:(fun () -> Cluster.teardown plain)
      (fun () ->
        let before = scrape_all plain in
        let via =
          run_window plain inputs ~target:Via_router ~rate:spec.nominal ~duration:half
            ~cursor:0
        in
        let after = scrape_all plain in
        Report.note r (window_note "via router" via);
        service_metrics r before after;
        router_metrics r before after;
        (* The same requests again, straight to the owning shards: the
           pairs are already cached there. *)
        let direct =
          run_window plain inputs ~target:Direct ~rate:spec.nominal ~duration:half
            ~cursor:0
        in
        Report.note r (window_note "direct to shards" direct);
        (via, direct))
  in
  Report.set r "router.hop_ms" (p50 via -. p50 direct);
  let n = Array.length via.samples in
  if Stat.supported ~n 0.99 then Report.set r ~n "latency_p99_ms" (nominal_quantile 0.99 via);
  check_validity r via;
  (* The traced cluster's directory outlives its processes only until
     their trace dumps are read. *)
  let traced_cluster = start_cluster ~traced:true spec inputs in
  let traced, (files, by_trace) =
    Fun.protect
      ~finally:(fun () -> Cluster.remove_dir traced_cluster)
      (fun () ->
        let w =
          Fun.protect
            ~finally:(fun () -> Cluster.teardown ~keep_dir:true traced_cluster)
            (fun () ->
              run_window ~traced:true traced_cluster inputs ~target:Via_router
                ~rate:spec.nominal ~duration:half ~cursor:0)
        in
        ( w,
          match traced_cluster.Cluster.trace_dir with
          | Some d -> load_traces d
          | None -> (0, Hashtbl.create 1) ))
  in
  Report.note r (window_note "traced via router" traced);
  Report.set r "obs.trace_overhead_frac" ((p50 traced -. p50 via) /. p50 via);
  let windows = [ via; direct; traced ] in
  let expected, wrong = oracle ~traced:true inputs windows in
  let wrong = wrong @ List.concat_map failed_answers windows in
  let requests =
    List.filter_map Fun.id
      (Array.to_list
         (Array.mapi
            (fun i k ->
              let id =
                (Rip_obs.Trace.make_context ~scope:"perfbench"
                   ~digest:inputs.pairs.(k).digest ~seq:i ())
                  .Rip_obs.Trace.trace_id
              in
              Option.map
                (fun spans ->
                  (Openloop.latency traced.samples.(i) *. 1000.0, Budget.per_layer ~layer_of spans))
                (Hashtbl.find_opt by_trace id))
            traced.pair_of))
  in
  request_path_metrics r inputs expected via;
  let us name = Option.value ~default:0.0 (List.assoc_opt name r.Report.values) /. 1000.0 in
  (* Outside the router's ingress span the router parses the frame,
     digests the net and encodes the answer; the benchmark times those
     calls in-process. *)
  let outside =
    [ ("router.parse+digest+encode (in-process)",
       us "protocol.parse_us" +. us "net.digest_us" +. us "protocol.encode_us") ]
  in
  let layers =
    List.map (fun (l, s) -> (l, s *. 1000.0)) (Budget.median_band requests) @ outside
  in
  let e2e = p50 traced in
  Report.set r ~n:(List.length requests) "budget.unattributed_frac"
    (Budget.unattributed_frac ~e2e_p50:e2e ~layers);
  Report.note r
    (Printf.sprintf
       "layer budget of the median request (%d traced requests, %d dumps, e2e p50 %.3f ms):"
       (List.length requests) files e2e);
  List.iter
    (fun (layer, ms) ->
      Report.note r
        (Printf.sprintf "  %-42s %8.3f ms  %5.1f %%" layer ms (100.0 *. ms /. e2e)))
    layers;
  Report.note r
    (Printf.sprintf "  router hop (via router p50 - direct p50)   %8.3f ms  %5.1f %%"
       (p50 via -. p50 direct) (100.0 *. (p50 via -. p50 direct) /. p50 via));
  let records =
    Hashtbl.fold (fun _ e acc -> match e.record with Some x -> x :: acc | None -> acc)
      expected []
  in
  List.iter (fun (k, v) -> Report.set r ~n:(List.length records) k v)
    (Solver_layers.metrics ~distinct:records ~timed:records);
  Report.set r ~n:(List.length inputs.tau_min_ms) "core.tau_min_ms" (Stat.mean inputs.tau_min_ms);
  record_counts r ~gated:windows ~rungs:[] ~wrong

(* The ladder, nominal rate and limit as BENCHMARK.json records them in
   the workload's "why". *)
let ladder_summary spec =
  Printf.sprintf "ladder %s req/s, nominal %.0f, p99 limit %.0f ms"
    (String.concat " " (List.map (Printf.sprintf "%.0f") spec.ladder))
    spec.nominal spec.limit_ms

(* Offered-rate ladders are absolute requests/s; the nominal rung is
   one the code of this benchmark's introduction sustains, and the
   serve-warm ladder reaches well above what it sustains, so a faster
   router has room to show.  Limits are on p99, due-time latency. *)
let warm =
  { name = "serve-warm"; journal = false;
    ladder = [ 250.; 400.; 650.; 1000.; 1600.; 2500.; 4000.; 6500. ];
    nominal = 400.; limit_ms = 50.0; new_share = 0.0; warm_pairs = 160 }

let mixed =
  { name = "serve-mixed"; journal = true;
    ladder = [ 100.; 200.; 400.; 800.; 1600.; 3200. ];
    nominal = 200.; limit_ms = 250.0; new_share = 0.125; warm_pairs = 40 }
