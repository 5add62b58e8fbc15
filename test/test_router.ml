(* The router subsystem: consistent-hash ring placement (balance,
   restart determinism, minimal remap on membership edits), config
   validation, and in-process clusters — shard servers and a router on
   Unix sockets inside this test process — for trace linkage, the
   cluster view across a shard restart, failover off a dead primary and
   failure detection of a hung shard.  Spawned-process supervision and a
   real SIGKILL/SIGSTOP are exercised by the CI cluster smoke job. *)

module Ring = Rip_router.Ring
module Router = Rip_router.Router
module Server = Rip_service.Server
module Client = Rip_service.Client
module Protocol = Rip_service.Protocol

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

(* Router.create rejects nonsense pool / hedge configuration before
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
  bad { Router.default_config with pool_size = 0 }

(* --- In-process clusters ------------------------------------------------- *)

let sock_path name =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "rip-test-%d-%s.sock" (Unix.getpid ()) name)

let spec id socket = { Router.id; socket; weight = 1 }

(* A shard server on [socket]; the returned function stops it. *)
let start_shard ?tracer ~id socket =
  let server =
    Server.create
      ~config:
        { Server.default_config with jobs = Some 1; shard_id = id; tracer }
      Helpers.process
  in
  let listener = Server.listen_unix socket in
  let thread = Thread.create (fun () -> Server.run server listener) () in
  fun () ->
    Server.request_shutdown server;
    (* nudge the accept loop awake so it notices the shutdown *)
    (try Client.close (Client.connect_unix socket)
     with Unix.Unix_error _ -> ());
    Thread.join thread;
    Server.shutdown server;
    try Sys.remove socket with Sys_error _ -> ()

(* Accept on [socket], running [serve] on each connection in a thread of
   its own.  The connections are tracked, so the returned function can
   cut them all at once, as a killed process would. *)
let serve_tracked serve socket =
  let listener = Server.listen_unix socket in
  let fds = ref [] and fds_mutex = Mutex.create () in
  let rec accept_loop () =
    match Unix.accept ~cloexec:true listener with
    | fd, _ ->
        Mutex.protect fds_mutex (fun () -> fds := fd :: !fds);
        ignore (Thread.create serve fd);
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
            try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
          !fds)

(* A router on [socket] over [shards]; the returned function stops it. *)
let start_router ?(config = Router.default_config) ~socket shards =
  let router = Router.create ~config ~shards Helpers.process in
  let listener = Router.listen_unix socket in
  let thread = Thread.create (fun () -> Router.run router listener) () in
  fun () ->
    Router.request_shutdown router;
    Thread.join thread;
    try Sys.remove socket with Sys_error _ -> ()

let fetch_metrics client =
  match Client.request client Protocol.Metrics with
  | Ok (Protocol.Metrics_frame body) -> body
  | Ok other ->
      Alcotest.failf "METRICS answered %S" (Protocol.print_response other)
  | Error e -> Alcotest.failf "METRICS failed: %s" e

let uniform_net ~name length =
  Helpers.Net.uniform ~name Rip_tech.Layer.metal4 ~length ~segment_count:2
    ~driver_width:30.0 ~receiver_width:60.0

let solve_request ?trace net =
  let budget =
    1.3 *. Rip_core.Rip.tau_min Helpers.process (Rip_net.Geometry.of_net net)
  in
  Protocol.Solve { budget; deadline_ms = None; trace; net }

(* --- End to end: router -> shard span parentage -------------------------- *)

(* One in-process shard server and router, each with a scoped tracer,
   a traced SOLVE through the router's front socket — then merge both
   Chrome dumps and assert the cross-process parent chain the TRACE
   header is supposed to build: client root -> router ingress -> router
   forward:<shard> -> shard spans. *)
let test_router_trace_parentage () =
  let module Trace = Rip_obs.Trace in
  let module Trace_merge = Rip_obs.Trace_merge in
  let shard_sock = sock_path "shard" and router_sock = sock_path "router" in
  let shard_tracer = Trace.create ~scope:"s0" ~pid:1 () in
  let stop_shard = start_shard ~tracer:shard_tracer ~id:"s0" shard_sock in
  let router_tracer = Trace.create ~scope:"router" ~pid:2 () in
  let stop_router =
    start_router
      ~config:{ Router.default_config with tracer = Some router_tracer }
      ~socket:router_sock [ spec "s0" shard_sock ]
  in
  let net =
    Helpers.Net.uniform ~name:"traced" Rip_tech.Layer.metal4 ~length:5000.0
      ~segment_count:3 ~driver_width:30.0 ~receiver_width:60.0
  in
  let ctx =
    Trace.make_context ~scope:"test" ~digest:"client" ~seq:0 ()
  in
  let client = Client.connect_unix router_sock in
  (match Client.request client (solve_request ~trace:ctx net) with
  | Ok (Protocol.Result _) -> ()
  | Ok other ->
      Alcotest.failf "traced solve answered %S"
        (Protocol.print_response other)
  | Error e -> Alcotest.failf "traced solve failed: %s" e);
  (match Client.request client Protocol.Shutdown with
  | Ok Protocol.Bye -> ()
  | Ok _ | Error _ -> Alcotest.fail "SHUTDOWN not answered with BYE");
  Client.close client;
  stop_router ();
  stop_shard ();
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
  let module Exposition = Rip_obs.Metrics.Exposition in
  (* Writes to the crashed shard must fail with EPIPE, as they do in
     rip_routerd, not kill the test. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let shard_sock = sock_path "restart-s0"
  and router_sock = sock_path "restart-router" in
  let start_shard () =
    let server =
      Server.create
        ~config:{ Server.default_config with jobs = Some 1; shard_id = "s0" }
        Helpers.process
    in
    let crash = serve_tracked (Server.handle_connection server) shard_sock in
    fun () ->
      crash ();
      Server.shutdown server
  in
  let crash_first = start_shard () in
  let stop_router =
    start_router
      ~config:{ Router.default_config with poll_interval = 0.02 }
      ~socket:router_sock [ spec "s0" shard_sock ]
  in
  let client = Client.connect_unix router_sock in
  let metrics () = Exposition.parse (fetch_metrics client) in
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
    match
      Client.request client (solve_request (uniform_net ~name:"restart" length))
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
  stop_router ();
  stop_second ();
  try Sys.remove shard_sock with Sys_error _ -> ()

(* A transport failure on the request path fails over at once: a
   request whose primary shard is dead is answered by its second choice
   while the poller still counts the dead shard as up (its first missed
   poll is far from [down_after]), so no failure detector is involved. *)
let test_router_dead_primary_fails_over () =
  let live = sock_path "dead-s0" and dead = sock_path "dead-s1" in
  let router_sock = sock_path "dead-router" in
  (try Sys.remove dead with Sys_error _ -> ());
  let stop_shard = start_shard ~id:"s0" live in
  let shards = [ spec "s0" live; spec "s1" dead ] in
  let ring = Ring.create (List.map (fun s -> (s.Router.id, 1)) shards) in
  let rec owned_by_dead length =
    let net = uniform_net ~name:"failover" length in
    if Ring.lookup ring (Rip_net.Net.canonical_digest net) = Some "s1" then net
    else owned_by_dead (length +. 250.0)
  in
  let net = owned_by_dead 3000.0 in
  let stop_router =
    start_router
      ~config:{ Router.default_config with poll_interval = 1.0; down_after = 5 }
      ~socket:router_sock shards
  in
  let client = Client.connect_unix router_sock in
  Fun.protect
    ~finally:(fun () ->
      Client.close client;
      stop_router ();
      stop_shard ())
    (fun () ->
      (match Client.request client (solve_request net) with
      | Ok (Protocol.Result _) -> ()
      | Ok other ->
          Alcotest.failf "solve answered %S" (Protocol.print_response other)
      | Error e -> Alcotest.failf "solve failed: %s" e);
      let body = fetch_metrics client in
      let series = Helpers.series body in
      Alcotest.(check int) "the dead primary's forward failed" 1
        (series "rip_router_shard_s1_failovers_total");
      Alcotest.(check int) "the failover shard answered" 1
        (series "rip_router_shard_s0_forwarded_total");
      Alcotest.(check int) "no local DEGRADED answer" 0
        (series "rip_router_degraded_total");
      Alcotest.(check int) "the poller has not marked it down yet" 1
        (series "rip_router_shard_s1_up"))

(* A shard that reads its requests and never answers, like a stopped
   process. *)
let never_answer fd =
  let buf = Bytes.create 4096 in
  let rec drain () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | _ -> drain ()
    | exception Unix.Unix_error _ -> ()
  in
  drain ();
  Unix.close fd

(* Every control-plane exchange is bounded by [poll_interval *
   down_after], far below the forward timeout: a hung shard is marked
   down within a few such windows, the healthy shard's polls go on, and
   the router's METRICS answer never waits out [request_timeout]. *)
let test_router_hung_shard_detected () =
  let live = sock_path "hung-s0" and hung = sock_path "hung-s1" in
  let router_sock = sock_path "hung-router" in
  let stop_shard = start_shard ~id:"s0" live in
  let stop_hung = serve_tracked never_answer hung in
  let config =
    {
      Router.default_config with
      poll_interval = 0.1;
      down_after = 2;
      request_timeout = 3.0;
    }
  in
  let window = config.poll_interval *. float_of_int config.down_after in
  let stop_router =
    start_router ~config ~socket:router_sock [ spec "s0" live; spec "s1" hung ]
  in
  let client = Client.connect_unix router_sock in
  Fun.protect
    ~finally:(fun () ->
      Client.close client;
      stop_router ();
      stop_hung ();
      stop_shard ();
      try Sys.remove hung with Sys_error _ -> ())
    (fun () ->
      let started = Unix.gettimeofday () in
      let timed_metrics () =
        let asked = Unix.gettimeofday () in
        let body = fetch_metrics client in
        let took = Unix.gettimeofday () -. asked in
        if took > 5.0 *. window then
          Alcotest.failf "router METRICS took %.2f s (window %.2f s)" took
            window;
        body
      in
      let rec await_down () =
        let body = timed_metrics () in
        if Helpers.series body "rip_router_shard_s1_up" = 0 then body
        else if Unix.gettimeofday () -. started > 15.0 *. window then
          Alcotest.failf "hung shard still up after %.2f s"
            (Unix.gettimeofday () -. started)
        else begin
          Thread.delay 0.02;
          await_down ()
        end
      in
      let body = await_down () in
      Alcotest.(check int) "the healthy shard stays up" 1
        (Helpers.series body "rip_router_shard_s0_up"))

(* --- Hedged forwards ------------------------------------------------------ *)

(* What a scripted stub shard does with one SOLVE. *)
type behaviour = Answer_after of float | Hang_up

(* A stub shard that answers the router's polls and treats the [n]th
   SOLVE it reads (from 0, over all its connections) as [script n]
   says: [answer] after a delay, or a hang-up with no answer. *)
let scripted_shard ~id ~answer script socket =
  let solves = Atomic.make 0 in
  let serve fd =
    let reader = Rip_service.Wire.reader (Rip_service.Wire.create fd) in
    let reply response =
      Rip_service.Wire.send fd (Protocol.print_response response)
    in
    let rec loop () =
      match Protocol.input_request reader with
      | Ok (Some Protocol.Metrics) ->
          reply (Protocol.Metrics_frame "");
          loop ()
      | Ok (Some Protocol.Health) ->
          reply
            (Protocol.Health_frame
               {
                 health_shard_id = id;
                 health_in_flight = 0;
                 health_queue_depth = 64;
                 health_high_water = 48;
               });
          loop ()
      | Ok (Some _) -> (
          match script (Atomic.fetch_and_add solves 1) with
          | Answer_after seconds ->
              Thread.delay seconds;
              reply answer;
              loop ()
          | Hang_up -> ())
      | Ok None | Error _ -> ()
    in
    (try loop () with Unix.Unix_error _ | Sys_error _ -> ());
    Unix.close fd
  in
  serve_tracked serve socket

(* The stubs' answers differ in total width, which names the source. *)
let stub_answer width =
  Protocol.Result
    {
      served = Protocol.Fresh;
      solution =
        { repeaters = []; total_width = width; delay = 0.0; power_watts = 0.0 };
    }

let answered_by = function
  | Ok (Protocol.Result { solution = { total_width = 0.0; _ }; _ }) -> "s0"
  | Ok (Protocol.Result { solution = { total_width = 1.0; _ }; _ }) -> "s1"
  | Ok other -> Protocol.print_response other
  | Error e -> "transport error: " ^ e

(* A router with hedge delay floor [floor] over stubs s0 and s1, running
   [s0] and [s1] as their scripts.  [f] gets [solve], which sends one
   SOLVE keyed to s0 (so s1 is its failover and hedge target) and returns
   the answer with its round-trip seconds, [series] over the router's
   METRICS and [events], the wide events spooled so far. *)
let with_hedge_cluster ~floor ~s0 ~s1 f =
  (* Writes to a dropped connection fail with EPIPE, as in rip_routerd. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sock name = sock_path ("hedge-" ^ name) in
  let stop_s0 = scripted_shard ~id:"s0" ~answer:(stub_answer 0.0) s0 (sock "s0")
  and stop_s1 =
    scripted_shard ~id:"s1" ~answer:(stub_answer 1.0) s1 (sock "s1")
  in
  let shards = [ spec "s0" (sock "s0"); spec "s1" (sock "s1") ] in
  let spool_path = Filename.temp_file "rip-hedge" ".jsonl" in
  let spool =
    Rip_obs.Wide_event.create ~sampler:Rip_obs.Wide_event.keep_all spool_path
  in
  let stop_router =
    start_router
      ~config:
        { Router.default_config with hedge_delay_floor = floor; spool = Some spool }
      ~socket:(sock "router") shards
  in
  let ring = Ring.create (List.map (fun s -> (s.Router.id, 1)) shards) in
  let rec owned_by_s0 length =
    let net = uniform_net ~name:"hedge" length in
    if Ring.lookup ring (Rip_net.Net.canonical_digest net) = Some "s0" then net
    else owned_by_s0 (length +. 250.0)
  in
  let request = solve_request (owned_by_s0 3000.0) in
  let client = Client.connect_unix (sock "router") in
  let solve () =
    let asked = Unix.gettimeofday () in
    let answer = Client.request client request in
    (answer, Unix.gettimeofday () -. asked)
  in
  Fun.protect
    ~finally:(fun () ->
      Client.close client;
      stop_router ();
      stop_s0 ();
      stop_s1 ();
      Rip_obs.Wide_event.close spool;
      List.iter
        (fun path -> try Sys.remove path with Sys_error _ -> ())
        [ spool_path; sock "s0"; sock "s1" ])
    (fun () ->
      f ~solve
        ~series:(fun name -> Helpers.series (fetch_metrics client) name)
        ~events:(fun () -> Rip_obs.Wide_event.load_file spool_path))

let check_event ~shard ~hedged ~hedge_won ~failover
    (e : Rip_obs.Wide_event.t) =
  Alcotest.(check string) "wide event: serving shard" shard e.shard;
  Alcotest.(check bool) "wide event: hedged" hedged e.hedged;
  Alcotest.(check bool) "wide event: hedge_won" hedge_won e.hedge_won;
  Alcotest.(check bool) "wide event: failover" failover e.failover

let check_hedges ~series ~hedges ~wins =
  Alcotest.(check int) "hedges" hedges (series "rip_router_hedges_total");
  Alcotest.(check int) "hedge wins" wins (series "rip_router_hedge_wins_total")

(* The primary stalls past the hedge delay; the hedge fires, the fast
   secondary answers first and is served. *)
let test_hedge_wins () =
  with_hedge_cluster ~floor:0.1
    ~s0:(fun _ -> Answer_after 1.0)
    ~s1:(fun _ -> Answer_after 0.0)
    (fun ~solve ~series ~events ->
      let answer, took = solve () in
      Alcotest.(check string) "answered by" "s1" (answered_by answer);
      if took > 0.8 then Alcotest.failf "served after %.2f s" took;
      check_hedges ~series ~hedges:1 ~wins:1;
      match events () with
      | [ e ] -> check_event ~shard:"s1" ~hedged:true ~hedge_won:true ~failover:false e
      | es -> Alcotest.failf "%d wide events, expected 1" (List.length es))

(* The hedge fires, then the primary answers well before the stalled
   secondary: the primary's answer is served at once, without waiting
   for the secondary. *)
let test_hedge_primary_first () =
  with_hedge_cluster ~floor:0.1
    ~s0:(fun _ -> Answer_after 0.25)
    ~s1:(fun _ -> Answer_after 3.0)
    (fun ~solve ~series ~events ->
      let answer, took = solve () in
      Alcotest.(check string) "answered by" "s0" (answered_by answer);
      if took > 1.0 then
        Alcotest.failf "served after %.2f s: waited for the hedge" took;
      check_hedges ~series ~hedges:1 ~wins:0;
      match events () with
      | [ e ] -> check_event ~shard:"s0" ~hedged:true ~hedge_won:false ~failover:false e
      | es -> Alcotest.failf "%d wide events, expected 1" (List.length es))

(* The primary hangs up before the hedge delay: a failover, no hedge. *)
let test_hedge_primary_hangs_up () =
  with_hedge_cluster ~floor:1.0
    ~s0:(fun _ -> Hang_up)
    ~s1:(fun _ -> Answer_after 0.0)
    (fun ~solve ~series ~events ->
      let answer, _ = solve () in
      Alcotest.(check string) "answered by" "s1" (answered_by answer);
      check_hedges ~series ~hedges:0 ~wins:0;
      Alcotest.(check int) "the primary's forward failed" 1
        (series "rip_router_shard_s0_failovers_total");
      match events () with
      | [ e ] -> check_event ~shard:"s1" ~hedged:false ~hedge_won:false ~failover:true e
      | es -> Alcotest.failf "%d wide events, expected 1" (List.length es))

(* Both candidates hang up: the router answers DEGRADED (worker lost)
   itself. *)
let test_hedge_both_hang_up () =
  with_hedge_cluster ~floor:1.0
    ~s0:(fun _ -> Hang_up)
    ~s1:(fun _ -> Hang_up)
    (fun ~solve ~series ~events ->
      (match solve () with
      | Ok (Protocol.Degraded { reason = Protocol.Worker_lost; _ }), _ -> ()
      | answer, _ ->
          Alcotest.failf "expected DEGRADED worker-lost, got %s"
            (answered_by answer));
      check_hedges ~series ~hedges:0 ~wins:0;
      Alcotest.(check int) "a local DEGRADED answer" 1
        (series "rip_router_degraded_total");
      match events () with
      | [ e ] ->
          Alcotest.(check string) "wide event: outcome" "degraded" e.outcome;
          Alcotest.(check string)
            "wide event: degrade reason" "worker-lost" e.degrade_reason;
          check_event ~shard:"s1" ~hedged:false ~hedge_won:false ~failover:true e
      | es -> Alcotest.failf "%d wide events, expected 1" (List.length es))

(* The hedge's loser is dropped, not pooled: the next forward to the
   same shard gets its own answer at once, not the stale one the dropped
   connection still owes. *)
let test_hedge_loser_not_pooled () =
  with_hedge_cluster ~floor:0.1
    ~s0:(function 0 -> Answer_after 1.0 | _ -> Answer_after 0.0)
    ~s1:(fun _ -> Answer_after 0.0)
    (fun ~solve ~series ~events ->
      let first, _ = solve () in
      Alcotest.(check string) "first answered by the hedge" "s1"
        (answered_by first);
      let second, took = solve () in
      Alcotest.(check string) "second answered by the primary" "s0"
        (answered_by second);
      if took > 0.8 then Alcotest.failf "second served after %.2f s" took;
      check_hedges ~series ~hedges:1 ~wins:1;
      Alcotest.(check int) "the primary answered once" 1
        (series "rip_router_shard_s0_forwarded_total");
      match events () with
      | [ _; e ] -> check_event ~shard:"s0" ~hedged:false ~hedge_won:false ~failover:false e
      | es -> Alcotest.failf "%d wide events, expected 2" (List.length es))

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
    ( "router.config",
      [
        Alcotest.test_case "pool and hedge validation" `Quick
          test_router_config_validation;
      ] );
    ( "router.cluster",
      [
        Alcotest.test_case "cluster counters monotone across a shard restart"
          `Quick test_router_cluster_counters_survive_restart;
        Alcotest.test_case "dead primary fails over at once" `Quick
          test_router_dead_primary_fails_over;
        Alcotest.test_case "hung shard marked down within the poll window"
          `Quick test_router_hung_shard_detected;
        Alcotest.test_case "hedge fires and wins on a stalled primary" `Quick
          test_hedge_wins;
        Alcotest.test_case "primary answering after the hedge is served first"
          `Quick test_hedge_primary_first;
        Alcotest.test_case "primary hang-up fails over without a hedge" `Quick
          test_hedge_primary_hangs_up;
        Alcotest.test_case "both candidates hang up: DEGRADED worker-lost"
          `Quick test_hedge_both_hang_up;
        Alcotest.test_case "a dropped hedge loser leaves the pool usable"
          `Quick test_hedge_loser_not_pooled;
      ] );
    ( "router.trace",
      [
        Alcotest.test_case
          "merged trace links client, router and shard spans" `Quick
          test_router_trace_parentage;
      ] );
  ]
