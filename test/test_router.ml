(* The router subsystem's pure parts: consistent-hash ring placement
   (balance, restart determinism, minimal remap on membership edits)
   and the price controller's climb/decay dynamics.  The process-level
   behaviour — supervision, failover, shedding — is exercised by the
   bench cluster ladder and the CI cluster smoke job. *)

module Ring = Rip_router.Ring
module Pricing = Rip_router.Pricing
module Router = Rip_router.Router

let qcheck = QCheck_alcotest.to_alcotest

(* --- Ring: fixed-example behaviour -------------------------------------- *)

let members n = List.init n (fun i -> (Printf.sprintf "s%d" i, 1))

let test_ring_basics () =
  let ring = Ring.create (members 3) in
  Alcotest.(check int) "members" 3 (Ring.size ring);
  Alcotest.(check int) "vnodes"
    (3 * Ring.default_vnodes_per_weight)
    (Ring.vnode_count ring);
  (match Ring.lookup ring "some key" with
  | Some id -> Alcotest.(check bool) "member owns key"
      true
      (List.mem_assoc id (Ring.members ring))
  | None -> Alcotest.fail "non-empty ring must own every key");
  (* The share accounting covers the whole keyspace. *)
  let total = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 (Ring.shares ring) in
  Alcotest.(check (float 1e-9)) "shares sum to 1" 1.0 total

let test_ring_single_shard () =
  let ring = Ring.create (members 1) in
  (match Ring.lookup_pair ring "k" with
  | Some ("s0", None) -> ()
  | Some (id, second) ->
      Alcotest.failf "expected (s0, None), got (%s, %s)" id
        (Option.value second ~default:"<none>")
  | None -> Alcotest.fail "single-shard ring owns everything");
  Alcotest.check_raises "duplicate id"
    (Invalid_argument "Ring.create: duplicate shard s0") (fun () ->
      ignore (Ring.create [ ("s0", 1); ("s0", 2) ]))

let test_ring_pair_distinct () =
  let ring = Ring.create (members 4) in
  List.iter
    (fun i ->
      let key = Printf.sprintf "net-%d" i in
      match Ring.lookup_pair ring key with
      | Some (primary, Some second) ->
          if String.equal primary second then
            Alcotest.failf "spill target equals primary for %s" key
      | Some (_, None) ->
          Alcotest.fail "4-shard ring must offer a second choice"
      | None -> Alcotest.fail "non-empty ring owns every key")
    (List.init 64 Fun.id)

(* --- Ring: properties ---------------------------------------------------- *)

let shard_count_gen = QCheck.Gen.int_range 2 8

(* Balance: at the default vnode count, equally-weighted shards own
   keyspace shares within a 3x max/min spread.  (MD5 positions are not
   uniform enough for a tighter bound at 128 vnodes; the router cares
   that no shard is starved or doubled up on, not about perfection.) *)
let prop_ring_balance =
  QCheck.Test.make ~name:"ring balance: max/min share within 3x" ~count:20
    (QCheck.make shard_count_gen) (fun n ->
      let ring = Ring.create (members n) in
      let shares = List.map snd (Ring.shares ring) in
      let mx = List.fold_left Float.max 0.0 shares in
      let mn = List.fold_left Float.min 1.0 shares in
      mn > 0.0 && mx /. mn <= 3.0)

(* Determinism: placement is a pure function of the membership, so a
   ring rebuilt from scratch (a process restart) routes every key
   identically. *)
let prop_ring_restart_deterministic =
  QCheck.Test.make ~name:"ring determinism across rebuilds" ~count:20
    QCheck.(pair (make shard_count_gen) small_int)
    (fun (n, salt) ->
      let a = Ring.create (members n) in
      let b = Ring.create (members n) in
      List.for_all
        (fun i ->
          let key = Printf.sprintf "key-%d-%d" salt i in
          match (Ring.lookup a key, Ring.lookup b key) with
          | Some x, Some y -> String.equal x y
          | _ -> false)
        (List.init 100 Fun.id))

(* Minimal remap: removing one of [n] equally-weighted shards moves
   only the removed shard's keys (survivors keep every key they had),
   and the moved fraction is ~1/n. *)
let prop_ring_minimal_remap =
  QCheck.Test.make ~name:"ring remap on removal is ~1/n and one-way"
    ~count:10
    (QCheck.make (QCheck.Gen.int_range 3 8))
    (fun n ->
      let before = Ring.create (members n) in
      let after = Ring.remove before "s0" in
      let keys = List.init 2000 (Printf.sprintf "net-%d") in
      let moved =
        List.fold_left
          (fun acc key ->
            match (Ring.lookup before key, Ring.lookup after key) with
            | Some b, Some a ->
                if String.equal b "s0" then
                  (* must move, anywhere *)
                  if String.equal a "s0" then QCheck.Test.fail_report
                      "removed shard still owns a key"
                  else acc + 1
                else if not (String.equal b a) then
                  QCheck.Test.fail_report
                    "a key moved between surviving shards"
                else acc
            | _ -> QCheck.Test.fail_report "lookup failed")
          0 keys
      in
      let expected = float_of_int (List.length keys) /. float_of_int n in
      (* The removed shard's true share is its arc share, not exactly
         1/n; allow a generous band around the ideal. *)
      let f = float_of_int moved in
      f > 0.2 *. expected && f < 3.0 *. expected)

(* add is remove's inverse: re-adding the shard restores the original
   placement exactly. *)
let prop_ring_add_restores =
  QCheck.Test.make ~name:"ring re-add restores placement" ~count:10
    (QCheck.make (QCheck.Gen.int_range 2 6))
    (fun n ->
      let original = Ring.create (members n) in
      let restored = Ring.add (Ring.remove original "s1") "s1" ~weight:1 in
      List.for_all
        (fun i ->
          let key = Printf.sprintf "k%d" i in
          match (Ring.lookup original key, Ring.lookup restored key) with
          | Some a, Some b -> String.equal a b
          | _ -> false)
        (List.init 500 Fun.id))

(* --- Pricing ------------------------------------------------------------- *)

let tick ?(seconds = 1.0) ?(completed = 0) ?(degraded = 0) ?(timeouts = 0)
    ?(busy = 0) ?(in_flight = 0) ?(queue_depth = 64) () =
  {
    Pricing.seconds;
    completed;
    degraded;
    timeouts;
    busy;
    in_flight;
    queue_depth;
  }

let test_pricing_climbs_under_pain () =
  let p = Pricing.create () in
  let congested =
    tick ~completed:40 ~degraded:10 ~busy:20 ~in_flight:60 ()
  in
  let initial = Pricing.price p in
  let floor = (Pricing.config p).Pricing.floor in
  let ceiling = (Pricing.config p).Pricing.ceiling in
  for _ = 1 to 12 do
    let price = Pricing.observe p congested in
    Alcotest.(check bool) "price stays within bounds" true
      (price >= floor && price <= ceiling)
  done;
  Alcotest.(check bool) "price rose under sustained congestion" true
    (Pricing.price p > initial)

let test_pricing_decays_when_idle () =
  let p = Pricing.create () in
  let congested = tick ~completed:40 ~degraded:10 ~busy:20 ~in_flight:60 () in
  List.iter (fun _ -> ignore (Pricing.observe p congested)) (List.init 8 Fun.id);
  let peak = Pricing.price p in
  let idle = tick ~completed:2 ~in_flight:1 () in
  List.iter (fun _ -> ignore (Pricing.observe p idle)) (List.init 40 Fun.id);
  let floor = (Pricing.config p).Pricing.floor in
  Alcotest.(check bool) "price fell from its peak" true (Pricing.price p < peak);
  Alcotest.(check (float 1e-9)) "idle price reaches the floor" floor
    (Pricing.price p)

let test_pricing_profit () =
  let config = Pricing.default_config in
  let o = tick ~seconds:2.0 ~completed:20 ~degraded:2 ~timeouts:1 ~busy:4 () in
  let expected =
    (20.0 /. 2.0)
    -. (config.Pricing.degraded_cost *. 2.0 /. 2.0)
    -. (config.Pricing.timeout_cost *. 1.0 /. 2.0)
    -. (config.Pricing.busy_cost *. 4.0 /. 2.0)
  in
  Alcotest.(check (float 1e-9)) "profit arithmetic" expected
    (Pricing.profit config o);
  Alcotest.(check (float 1e-9)) "empty window profits nothing" 0.0
    (Pricing.profit config (tick ~seconds:0.0 ()))

let test_pricing_validation () =
  let bad config =
    match Pricing.create ~config () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  bad { Pricing.default_config with floor = 0.0 };
  bad { Pricing.default_config with floor = 2.0; initial_price = 1.0 };
  bad { Pricing.default_config with ceiling = 0.5 };
  bad { Pricing.default_config with growth = 1.0 };
  bad { Pricing.default_config with shrink = 1.0 }

(* Router.create rejects nonsense hedge / breaker configuration before
   touching any socket, so the bad specs below never reach the
   connection pools. *)
let test_router_config_validation () =
  let shards =
    [ { Router.id = "s0"; socket = "/nonexistent/validation.sock"; weight = 1 } ]
  in
  let process = Rip_tech.Process.default_180nm in
  let bad config =
    match Router.create ~config ~shards process with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  bad { Router.default_config with hedge_delay_floor = -0.001 };
  bad { Router.default_config with hedge_delay_factor = 0.0 };
  bad { Router.default_config with breaker_threshold = 0 };
  bad { Router.default_config with pool_size = 0 };
  bad { Router.default_config with spill_price = 2.0; shed_price = 1.0 }

(* Determinism: the same observation sequence always yields the same
   price path — the router's admission decisions are replayable. *)
let prop_pricing_deterministic =
  QCheck.Test.make ~name:"pricing determinism" ~count:50
    QCheck.(
      list_of_size (Gen.int_range 0 30)
        (pair (int_bound 80) (int_bound 10)))
    (fun ticks ->
      let run () =
        let p = Pricing.create () in
        List.map
          (fun (completed, degraded) ->
            Pricing.observe p
              (tick ~completed ~degraded ~in_flight:(completed / 2) ()))
          ticks
      in
      List.for_all2 (fun a b -> Float.equal a b) (run ()) (run ()))

(* --- End to end: router -> shard span parentage -------------------------- *)

(* One in-process shard server and router, each with a scoped tracer,
   a traced SOLVE through the router's front socket — then merge both
   Chrome dumps and assert the cross-process parent chain the TRACE
   header is supposed to build: client root -> router ingress -> router
   forward:<shard> -> shard spans. *)
let test_router_trace_parentage () =
  let process = Helpers.process in
  let module Server = Rip_service.Server in
  let module Client = Rip_service.Client in
  let module Protocol = Rip_service.Protocol in
  let module Trace = Rip_obs.Trace in
  let module Trace_merge = Rip_obs.Trace_merge in
  let dir = Filename.get_temp_dir_name () in
  let tag = Unix.getpid () in
  let shard_sock =
    Filename.concat dir (Printf.sprintf "rip-test-%d-shard.sock" tag)
  in
  let router_sock =
    Filename.concat dir (Printf.sprintf "rip-test-%d-router.sock" tag)
  in
  let shard_tracer = Trace.create ~scope:"s0" ~pid:1 () in
  let server =
    Server.create
      ~config:
        {
          Server.default_config with
          jobs = Some 1;
          shard_id = "s0";
          tracer = Some shard_tracer;
        }
      process
  in
  let server_listener = Server.listen_unix shard_sock in
  let server_thread =
    Thread.create (fun () -> Server.run server server_listener) ()
  in
  let router_tracer = Trace.create ~scope:"router" ~pid:2 () in
  let router =
    Router.create
      ~config:{ Router.default_config with tracer = Some router_tracer }
      ~shards:[ { Router.id = "s0"; socket = shard_sock; weight = 1 } ]
      process
  in
  let router_listener = Router.listen_unix router_sock in
  let router_thread =
    Thread.create (fun () -> Router.run router router_listener) ()
  in
  let net =
    Helpers.Net.uniform ~name:"traced" Rip_tech.Layer.metal4 ~length:5000.0
      ~segment_count:3 ~driver_width:30.0 ~receiver_width:60.0
  in
  let budget =
    1.3
    *. Rip_core.Rip.tau_min process (Rip_net.Geometry.of_net net)
  in
  let ctx =
    Trace.make_context ~scope:"test" ~digest:"client" ~seq:0 ()
  in
  let client = Client.connect_unix router_sock in
  (match
     Client.request client
       (Protocol.Solve { budget; deadline_ms = None; trace = Some ctx; net })
   with
  | Ok (Protocol.Result _) -> ()
  | Ok other ->
      Alcotest.failf "traced solve answered %S"
        (Protocol.print_response other)
  | Error e -> Alcotest.failf "traced solve failed: %s" e);
  (match Client.request client Protocol.Shutdown with
  | Ok Protocol.Bye -> ()
  | Ok _ | Error _ -> Router.request_shutdown router);
  Client.close client;
  Thread.join router_thread;
  Server.request_shutdown server;
  (* nudge the accept loop awake so it notices the shutdown *)
  (try Client.close (Client.connect_unix shard_sock)
   with Unix.Unix_error _ -> ());
  Thread.join server_thread;
  Server.shutdown server;
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ shard_sock; router_sock ];
  let parse t =
    match Trace_merge.parse (Trace.to_chrome_json t) with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let dumps = [ parse router_tracer; parse shard_tracer ] in
  match Trace_merge.traces dumps with
  | [ (tid, spans) ] ->
      Alcotest.(check string)
        "one trace, the client's" ctx.Trace.trace_id tid;
      let find name =
        match
          List.find_opt
            (fun (s : Trace_merge.trace_span) -> s.span_name = name)
            spans
        with
        | Some s -> s
        | None -> Alcotest.failf "span %S missing from the merged trace" name
      in
      let span_arg name (s : Trace_merge.trace_span) =
        Option.value ~default:"" (List.assoc_opt name s.span_args)
      in
      let ingress = find "ingress" in
      let forward = find "forward:s0" in
      let solve = find "solve" in
      Alcotest.(check string)
        "ingress recorded by the router" "router" ingress.span_process;
      Alcotest.(check string)
        "solve recorded by the shard" "s0" solve.span_process;
      Alcotest.(check string)
        "ingress parents under the client's context"
        ctx.Trace.parent_span_id
        (span_arg "parent_span_id" ingress);
      Alcotest.(check string)
        "forward parents under ingress"
        (span_arg "span_id" ingress)
        (span_arg "parent_span_id" forward);
      Alcotest.(check string)
        "shard solve parents under the router's forward span"
        (span_arg "span_id" forward)
        (span_arg "parent_span_id" solve)
  | traces ->
      Alcotest.failf "expected exactly 1 merged trace, got %d"
        (List.length traces)

(* A restarted shard counts from zero.  The router carries the dead
   incarnation's counters, so its cluster view (the shards' series
   under their own names, appended to its METRICS) never goes
   backwards: the load generator's delta reconciliation relies on it. *)
let test_router_cluster_counters_survive_restart () =
  let process = Helpers.process in
  let module Server = Rip_service.Server in
  let module Client = Rip_service.Client in
  let module Protocol = Rip_service.Protocol in
  let module Exposition = Rip_obs.Metrics.Exposition in
  (* Writes to the crashed shard must fail with EPIPE, as they do in
     rip_routerd, not kill the test. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dir = Filename.get_temp_dir_name () in
  let tag = Unix.getpid () in
  let shard_sock =
    Filename.concat dir (Printf.sprintf "rip-test-%d-restart-s0.sock" tag)
  in
  let router_sock =
    Filename.concat dir (Printf.sprintf "rip-test-%d-restart-router.sock" tag)
  in
  (* The shard's connections are tracked so a crash can cut them all,
     as a killed process would. *)
  let start_shard () =
    let server =
      Server.create
        ~config:{ Server.default_config with jobs = Some 1; shard_id = "s0" }
        process
    in
    let listener = Server.listen_unix shard_sock in
    let fds = ref [] and fds_mutex = Mutex.create () in
    let rec accept_loop () =
      match Unix.accept ~cloexec:true listener with
      | fd, _ ->
          Mutex.protect fds_mutex (fun () -> fds := fd :: !fds);
          ignore (Thread.create (Server.handle_connection server) fd);
          accept_loop ()
      | exception Unix.Unix_error _ -> ()
    in
    let acceptor = Thread.create accept_loop () in
    fun () ->
      Unix.shutdown listener Unix.SHUTDOWN_ALL;
      Thread.join acceptor;
      Unix.close listener;
      Mutex.protect fds_mutex (fun () ->
          List.iter
            (fun fd ->
              try Unix.shutdown fd Unix.SHUTDOWN_ALL
              with Unix.Unix_error _ -> ())
            !fds);
      Server.shutdown server
  in
  let crash_first = start_shard () in
  let router =
    Router.create
      ~config:{ Router.default_config with poll_interval = 0.02 }
      ~shards:[ { Router.id = "s0"; socket = shard_sock; weight = 1 } ]
      process
  in
  let router_listener = Router.listen_unix router_sock in
  let router_thread =
    Thread.create (fun () -> Router.run router router_listener) ()
  in
  let client = Client.connect_unix router_sock in
  let metrics () =
    match Client.request client Protocol.Metrics with
    | Ok (Protocol.Metrics_frame body) -> Exposition.parse body
    | Ok other ->
        Alcotest.failf "METRICS answered %S" (Protocol.print_response other)
    | Error e -> Alcotest.failf "METRICS failed: %s" e
  in
  let series view name =
    match Exposition.value view name with
    | Some v -> int_of_float v
    | None -> Alcotest.failf "series %s missing from the router" name
  in
  let shard_up () = series (metrics ()) "rip_router_shard_s0_up" = 1 in
  let wait_until what cond =
    let deadline = Unix.gettimeofday () +. 10.0 in
    while not (cond ()) do
      if Unix.gettimeofday () > deadline then
        Alcotest.failf "timed out waiting until %s" what;
      Thread.delay 0.01
    done
  in
  let solve length =
    let net =
      Helpers.Net.uniform ~name:"restart" Rip_tech.Layer.metal4 ~length
        ~segment_count:2 ~driver_width:30.0 ~receiver_width:60.0
    in
    let budget =
      1.3 *. Rip_core.Rip.tau_min process (Rip_net.Geometry.of_net net)
    in
    match
      Client.request client
        (Protocol.Solve { budget; deadline_ms = None; trace = None; net })
    with
    | Ok (Protocol.Result _) -> ()
    | Ok other ->
        Alcotest.failf "solve answered %S" (Protocol.print_response other)
    | Error e -> Alcotest.failf "solve failed: %s" e
  in
  List.iter solve [ 4000.0; 5000.0; 4000.0; 5000.0 ];
  let before = metrics () in
  Alcotest.(check int) "requests before" 4 (series before "rip_requests_total");
  Alcotest.(check int) "hits before" 2 (series before "rip_cache_hits");
  (* Let the poller's last scrape of this incarnation see every request. *)
  Thread.delay 0.1;
  crash_first ();
  wait_until "the router marks the shard down" (fun () -> not (shard_up ()));
  let stop_second = start_shard () in
  wait_until "the router sees the shard again" shard_up;
  solve 4000.0 (* a miss: the new incarnation's cache is cold *);
  let after = metrics () in
  Alcotest.(check int) "requests carried" 5 (series after "rip_requests_total");
  Alcotest.(check int) "solved carried" 5 (series after "rip_solved_total");
  Alcotest.(check int) "hits carried" 2 (series after "rip_cache_hits");
  Alcotest.(check int) "misses carried" 3 (series after "rip_cache_misses");
  List.iter
    (fun (name, sample) ->
      let grew =
        match (sample, List.assoc_opt name after) with
        | Rip_obs.Metrics.Counter_sample v, Some (Counter_sample v') ->
            v' >= v
        | Histogram_sample h, Some (Histogram_sample h') ->
            h'.count >= h.count && h'.sum >= h.sum
        | Gauge_sample _, _ -> true
        | _, _ -> false
      in
      Alcotest.(check bool) (name ^ " monotone across the restart") true grew)
    before;
  Client.close client;
  Router.request_shutdown router;
  Thread.join router_thread;
  stop_second ();
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ shard_sock; router_sock ]

let suite =
  [
    ( "router.ring",
      [
        Alcotest.test_case "basics" `Quick test_ring_basics;
        Alcotest.test_case "single shard" `Quick test_ring_single_shard;
        Alcotest.test_case "spill target distinct" `Quick
          test_ring_pair_distinct;
        qcheck prop_ring_balance;
        qcheck prop_ring_restart_deterministic;
        qcheck prop_ring_minimal_remap;
        qcheck prop_ring_add_restores;
      ] );
    ( "router.pricing",
      [
        Alcotest.test_case "climbs under pain" `Quick
          test_pricing_climbs_under_pain;
        Alcotest.test_case "decays when idle" `Quick
          test_pricing_decays_when_idle;
        Alcotest.test_case "profit arithmetic" `Quick test_pricing_profit;
        Alcotest.test_case "config validation" `Quick test_pricing_validation;
        qcheck prop_pricing_deterministic;
      ] );
    ( "router.config",
      [
        Alcotest.test_case "hedge and breaker validation" `Quick
          test_router_config_validation;
      ] );
    ( "router.cluster",
      [
        Alcotest.test_case "cluster counters monotone across a shard restart"
          `Quick test_router_cluster_counters_survive_restart;
      ] );
    ( "router.trace",
      [
        Alcotest.test_case
          "merged trace links client, router and shard spans" `Quick
          test_router_trace_parentage;
      ] );
  ]
