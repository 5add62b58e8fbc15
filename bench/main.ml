(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section plus the DESIGN.md ablations and kernel
   microbenchmarks.

     dune exec bench/main.exe                  -- everything
     dune exec bench/main.exe table1 fig7      -- selected experiments
     dune exec bench/main.exe -- --quick all   -- reduced suite (CI-sized)
     dune exec bench/main.exe -- --jobs 8 suite -- engine scaling run

   Experiments: table1, table2, fig7, tree, ablation, micro, service,
   cluster, suite.
   The suite experiment runs the quick sweep through the rip_engine
   domain pool at jobs=1 and jobs=N, checks the outcome arrays are
   identical, and writes machine-readable rows to BENCH_suite.json in
   the working directory (a generated artifact, not tracked in git). *)

module Experiments = Rip_workload.Experiments
module Suite = Rip_workload.Suite
module Baseline = Rip_workload.Baseline
module Table = Rip_workload.Table
module Rip = Rip_core.Rip
module Config = Rip_core.Config
module Stats = Rip_numerics.Stats
module Geometry = Rip_net.Geometry
module Solution = Rip_elmore.Solution
module Engine = Rip_engine.Engine
module Telemetry = Rip_engine.Telemetry
module Trace = Rip_obs.Trace
module Trace_merge = Rip_obs.Trace_merge
module Wide_event = Rip_obs.Wide_event
module Obs = Rip_obs.Metrics

let process = Rip_tech.Process.default_180nm

type scale = {
  nets : int;
  targets : int;
}

let full_scale = { nets = Suite.default_count; targets = 20 }
let quick_scale = { nets = 6; targets = 7 }

let section title =
  Printf.printf "\n================ %s ================\n%!" title

(* --- Table 1 and Figure 7 (shared sweep) ------------------------------ *)

let run_table1_fig7 ?jobs scale =
  section "Table 1 / Figure 7 sweep";
  let nets = Suite.nets ~count:scale.nets () in
  let started = Unix.gettimeofday () in
  let runs, telemetry =
    Experiments.run_suite_stats ?jobs ~granularities:[ 10.0; 20.0; 40.0 ]
      ~fixed_range:false ~nets ~targets_per_net:scale.targets process
  in
  Printf.printf "(sweep of %d nets x %d targets took %.1fs wall; %s)\n\n"
    scale.nets scale.targets
    (Unix.gettimeofday () -. started)
    (Fmt.str "%a" Telemetry.pp telemetry);
  print_string "Table 1: power reduction for two-pin nets\n";
  print_string (Experiments.render_table1 (Experiments.table1 runs));
  print_newline ();
  List.iter
    (fun granularity ->
      print_string
        (Experiments.render_fig7 ~granularity
           (Experiments.fig7 ~granularity runs));
      print_newline ())
    [ 10.0; 40.0 ];
  (* RIP feasibility claim of the paper: no violations, ever. *)
  let rip_failures =
    List.concat_map
      (fun (run : Experiments.net_run) ->
        List.filter_map
          (fun (cell : Experiments.cell) ->
            match cell.Experiments.rip with
            | Error e ->
                Some
                  ( run.Experiments.net.Rip_net.Net.name,
                    Rip.error_to_string e )
            | Ok _ -> None)
          run.Experiments.cells)
      runs
  in
  Printf.printf "RIP timing violations across the sweep: %d\n"
    (List.length rip_failures);
  List.iter (fun (net, e) -> Printf.printf "  %s: %s\n" net e) rip_failures

(* --- Table 2 ----------------------------------------------------------- *)

let run_table2 ?jobs scale =
  section "Table 2: power savings and speedup tradeoff";
  let nets = Suite.nets ~count:scale.nets () in
  let started = Unix.gettimeofday () in
  let rows =
    Experiments.table2 ?jobs ~granularities:[ 40.0; 30.0; 20.0; 10.0 ] ~nets
      ~targets_per_net:scale.targets process
  in
  Printf.printf "(took %.1fs)\n\n" (Unix.gettimeofday () -. started);
  print_string (Experiments.render_table2 rows)

(* --- Ablations (DESIGN.md section 5) ----------------------------------- *)

(* Mean saving of a RIP variant over the g=40u fixed-size baseline on a
   reduced sweep, plus its mean runtime. *)
let ablation_measure config nets targets =
  let savings = ref [] and times = ref [] in
  List.iter
    (fun net ->
      let geometry = Geometry.of_net net in
      let tau_min = Rip.tau_min process geometry in
      let baseline = Baseline.fixed_size ~granularity:40.0 in
      List.iter
        (fun budget ->
          let base = Baseline.solve baseline process geometry ~budget in
          match
            ( base.Baseline.result,
              Rip.solve ~config
                { Rip.process; net; geometry = Some geometry; budget } )
          with
          | Some b, Ok r ->
              times := r.Rip.runtime_seconds :: !times;
              (match Experiments.saving_percent ~baseline:b ~rip:r with
              | Some s -> savings := s :: !savings
              | None -> ())
          | _, Ok r -> times := r.Rip.runtime_seconds :: !times
          | _, Error _ -> ())
        (Suite.timing_targets ~count:targets ~tau_min ()))
    nets;
  (Stats.mean !savings, Stats.mean !times)

let run_ablation scale =
  section "Ablations (vs DP[14] size-10 g=40u)";
  let nets = Suite.nets ~count:(Stdlib.min scale.nets 8) () in
  let targets = Stdlib.min scale.targets 7 in
  let base_config = Config.default in
  let variants =
    [
      ("rip default", base_config);
      ( "no REFINE movement (widths only)",
        { base_config with
          refine = { base_config.Config.refine with
                     Rip_refine.Refine.max_iterations = 0 } } );
      ( "newton width solver",
        { base_config with
          refine = { base_config.Config.refine with
                     Rip_refine.Refine.backend = Rip_refine.Width_solver.Newton } } );
      ( "refined radius 2",
        { base_config with Config.refined_radius = 2 } );
      ( "refined radius 20",
        { base_config with Config.refined_radius = 20 } );
      ( "coarse pitch 400um",
        { base_config with Config.coarse_pitch = 400.0 } );
      ( "coarse pitch 100um",
        { base_config with Config.coarse_pitch = 100.0 } );
      ( "coarse library 2x160u",
        { base_config with
          Config.coarse_library =
            Rip_dp.Repeater_library.uniform ~min_width:160.0 ~step:160.0
              ~count:2 } );
      ("three refine passes", { base_config with Config.refine_passes = 3 });
      ( "REFINE hops small zones",
        { base_config with
          refine = { base_config.Config.refine with
                     Rip_refine.Refine.hop_zones = true } } );
    ]
  in
  let rows =
    List.map
      (fun (name, config) ->
        let saving, time = ablation_measure config nets targets in
        [ name; Table.percent saving; Table.seconds time ])
      variants
  in
  print_string
    (Table.render ~header:[ "variant"; "DMean vs g40 (%)"; "T_RIP(s)" ] ~rows)

(* --- Tree extension ------------------------------------------------------ *)

let run_tree scale =
  section "Tree extension: hybrid vs pure DPs on random trees";
  let count = Stdlib.min 10 (Stdlib.max 4 (scale.nets / 2)) in
  let trees = Rip_workload.Tree_gen.suite ~count () in
  let started = Unix.gettimeofday () in
  let rows =
    Rip_workload.Tree_experiments.run ~trees ~targets_per_tree:6 process
  in
  Printf.printf "(took %.1fs)\n\n" (Unix.gettimeofday () -. started);
  print_string (Rip_workload.Tree_experiments.render rows)

(* --- Microbenchmarks (Bechamel) ---------------------------------------- *)

let run_micro () =
  section "Kernel microbenchmarks (Bechamel)";
  let open Bechamel in
  let net = List.nth (Suite.nets ~count:5 ()) 3 in
  let geometry = Geometry.of_net net in
  let repeater = process.Rip_tech.Process.repeater in
  let tau_min = Rip.tau_min process geometry in
  let budget = 1.4 *. tau_min in
  let candidates = Rip_dp.Candidates.uniform net ~pitch:200.0 in
  let library =
    Rip_dp.Repeater_library.uniform ~min_width:10.0 ~step:40.0 ~count:10
  in
  let coarse =
    match
      Rip_dp.Power_dp.run
        (Rip_dp.Power_dp.request geometry repeater
           ~library:Config.default.Config.coarse_library ~candidates ~budget)
    with
    | Some r -> r.Rip_dp.Power_dp.solution
    | None -> Solution.empty
  in
  let positions = Array.of_list (Solution.positions coarse) in
  let dp_micro backend name =
    let open Bechamel in
    Test.make ~name
      (Staged.stage (fun () ->
           Rip_dp.Power_dp.run
             (Rip_dp.Power_dp.request ~backend geometry repeater ~library
                ~candidates ~budget)))
  in
  let tests =
    [
      Test.make ~name:"stage_delay(eq1)"
        (Staged.stage (fun () ->
             Rip_elmore.Stage.delay repeater geometry ~driver_pos:500.0
               ~driver_width:40.0 ~load_pos:4000.0 ~load_width:80.0));
      Test.make ~name:"total_delay(eq2)"
        (Staged.stage (fun () ->
             Rip_elmore.Delay.total repeater geometry coarse));
      dp_micro Rip_dp.Power_dp.Reference "power_dp_ref(g=40u)";
      dp_micro Rip_dp.Power_dp.Fast "power_dp_fast(g=40u)";
      Test.make ~name:"width_solver(eq5+eq8)"
        (Staged.stage (fun () ->
             Rip_refine.Width_solver.solve geometry repeater ~positions
               ~budget));
      Test.make ~name:"refine(fig5)"
        (Staged.stage (fun () ->
             Rip_refine.Refine.run geometry repeater ~budget ~initial:coarse));
      Test.make ~name:"rip(fig6)"
        (Staged.stage (fun () ->
             Rip.solve { Rip.process; net; geometry = Some geometry; budget }));
    ]
  in
  let test = Test.make_grouped ~name:"rip" ~fmt:"%s/%s" tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances test in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let nanos =
          match Analyze.OLS.estimates ols with
          | Some (e :: _) -> e
          | Some [] | None -> Float.nan
        in
        (name, nanos) :: acc)
      results []
    |> List.sort (fun (_, a) (_, b) -> Float.compare a b)
    |> List.map (fun (name, nanos) ->
           [ name; Printf.sprintf "%.3f us" (nanos /. 1e3) ])
  in
  print_string (Table.render ~header:[ "kernel"; "time/run" ] ~rows)

(* --- Service: daemon + loadgen round trip ------------------------------- *)

(* The acceptance loop of the service subsystem: an in-process daemon on
   a Unix socket, a cold pass that fills the solve cache, then a warm
   pass replaying the same workload.  The warm pass must be cache-served
   and strictly faster. *)
let run_service scale =
  section "Service: cold vs warm solve cache (Unix socket)";
  let module Server = Rip_service.Server in
  let module Client = Rip_service.Client in
  let module Loadgen = Rip_service.Loadgen in
  let module Protocol = Rip_service.Protocol in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rip-bench-%d.sock" (Unix.getpid ()))
  in
  let server = Server.create process in
  let listener = Server.listen_unix path in
  let acceptor = Thread.create (fun () -> Server.run server listener) () in
  let requests = scale.nets * scale.targets in
  let workload =
    Loadgen.workload ~distinct_nets:(Stdlib.min scale.nets 8) ~requests
      process
  in
  let connect () = Client.connect_unix path in
  let pass label =
    let r = Loadgen.run ~connect ~connections:4 workload in
    Printf.printf "%s pass (%d requests):\n%s%!" label requests
      (Loadgen.render r);
    r
  in
  let cold = pass "cold" in
  let warm = pass "warm" in
  if cold.Loadgen.throughput > 0.0 then
    Printf.printf "warm/cold throughput: %.1fx\n"
      (warm.Loadgen.throughput /. cold.Loadgen.throughput);
  List.iter
    (fun (name, v) -> Printf.printf "%s %g\n" name v)
    (Obs.parse_scalars (Rip_service.Metrics.render (Server.metrics server)));
  let closer = Client.connect_unix path in
  (match Client.request closer Protocol.Shutdown with
  | Ok Protocol.Bye -> ()
  | Ok _ | Error _ -> Server.request_shutdown server);
  Client.close closer;
  Thread.join acceptor;
  try Sys.remove path with Sys_error _ -> ()

(* --- Cluster: sharded solve throughput ladder (BENCH_cluster.json) ------ *)

module Loadgen = Rip_service.Loadgen

type cluster_rung = {
  cl_shards : int;
  cl_cold : Loadgen.result;
  cl_warm : Loadgen.result;
  cl_hit_rates : (string * float) list;
  cl_router : Loadgen.result option;
}

(* The cluster acceptance ladder: spawn real rip_serviced shard
   processes, drive one workload through a client-side consistent-hash
   ring (the same placement rip_routerd computes) at 1 and 4 shards,
   then replay the warm pass through an in-process router to price the
   front-end hop.  Every rung gives each shard the same --jobs budget,
   so the ladder measures process-level scaling; on a box with fewer
   cores than shards the cold factor is core-bound, which is why the
   2.5x expectation is reported, not enforced. *)
let run_cluster scale =
  section "Cluster: sharded solve throughput (rip_serviced x N)";
  let module Client = Rip_service.Client in
  let module Protocol = Rip_service.Protocol in
  let module Supervisor = Rip_router.Supervisor in
  let module Ring = Rip_router.Ring in
  let module Router = Rip_router.Router in
  let module Net = Rip_net.Net in
  let exe =
    match Sys.getenv_opt "RIP_SERVICED" with
    | Some exe -> exe
    | None ->
        Filename.concat
          (Filename.dirname (Filename.dirname Sys.executable_name))
          "bin/rip_serviced.exe"
  in
  if not (Sys.file_exists exe) then
    Printf.printf
      "skipped: rip_serviced not found at %s (set RIP_SERVICED or build \
       bin/rip_serviced.exe)\n"
      exe
  else begin
    let cores = Engine.default_jobs () in
    let ladder = [ 1; 4 ] in
    let max_shards = List.fold_left Stdlib.max 1 ladder in
    let shard_jobs = Stdlib.max 1 (cores / max_shards) in
    let requests = scale.nets * scale.targets in
    let workload =
      Loadgen.workload ~distinct_nets:(Stdlib.min scale.nets 20) ~requests
        process
    in
    let dir = Filename.get_temp_dir_name () in
    let tag = Unix.getpid () in
    let solve_key frame =
      match frame with
      | Protocol.Solve { net; _ } -> Net.canonical_digest net
      | _ -> ""
    in
    (* Warm pass replayed through an in-process Router over the same
       (already hot) shards: the delta against the direct warm pass is
       the cost of the extra hop plus the pricing/ring decision.
       Returns the loadgen result plus the router's own METRICS
       exposition (hedge counters, forward latency). *)
    let router_pass ?(rconfig = Router.default_config) ?(wl = workload)
        children =
      let specs =
        List.map
          (fun c ->
            {
              Router.id = Supervisor.id c;
              socket = Supervisor.socket c;
              weight = 1;
            })
          children
      in
      let router = Router.create ~config:rconfig ~shards:specs process in
      let rpath =
        Filename.concat dir (Printf.sprintf "rip-bench-%d-router.sock" tag)
      in
      let listener = Router.listen_unix rpath in
      let acceptor = Thread.create (fun () -> Router.run router listener) () in
      let connect () = Client.connect_unix rpath in
      let r = Loadgen.run ~connect ~connections:4 wl in
      let mrender = Rip_router.Router_metrics.render (Router.metrics router) in
      let closer = Client.connect_unix rpath in
      (match Client.request closer Protocol.Shutdown with
      | Ok Protocol.Bye -> ()
      | Ok _ | Error _ -> Router.request_shutdown router);
      Client.close closer;
      Thread.join acceptor;
      (try Sys.remove rpath with Sys_error _ -> ());
      (r, mrender)
    in
    let run_rung n =
      let children =
        List.init n (fun i ->
            Supervisor.spawn ~exe
              ~extra_args:[ "--jobs"; string_of_int shard_jobs ]
              ~id:(Printf.sprintf "s%d" i)
              ~socket:
                (Filename.concat dir
                   (Printf.sprintf "rip-bench-%d-%d-%d.sock" tag n i))
              ())
      in
      Fun.protect
        ~finally:(fun () -> List.iter Supervisor.terminate children)
        (fun () ->
          List.iter
            (fun c ->
              match Supervisor.wait_ready c with
              | Ok () -> ()
              | Error e -> failwith e)
            children;
          let ids = Array.of_list (List.map Supervisor.id children) in
          let ring =
            Ring.create (Array.to_list (Array.map (fun id -> (id, 1)) ids))
          in
          let index_of id =
            let rec find i =
              if String.equal ids.(i) id then i else find (i + 1)
            in
            find 0
          in
          let connects =
            Array.of_list
              (List.map
                 (fun c ->
                   let s = Supervisor.socket c in
                   fun () -> Client.connect_unix s)
                 children)
          in
          let route ~index:_ frame =
            match Ring.lookup ring (solve_key frame) with
            | Some id -> index_of id
            | None -> 0
          in
          let pass label =
            let r = (Loadgen.run_multi ~connects ~route workload) in
            Printf.printf "%d shard(s), %s pass (%d requests):\n%s%!" n label
              requests
              (Loadgen.render r.Loadgen.merged);
            r
          in
          let cold = pass "cold" in
          let warm = pass "warm" in
          (* Shards whose partition was empty served no traffic and
             have no hit rate to report. *)
          let hit_rates =
            List.filteri
              (fun e _ -> warm.Loadgen.by_endpoint.(e).Loadgen.sent > 0)
              (Array.to_list
                 (Array.mapi
                    (fun e (r : Loadgen.result) ->
                      ( ids.(e),
                        float_of_int r.Loadgen.solved_cached
                        /. float_of_int (Stdlib.max 1 r.Loadgen.sent) ))
                    warm.Loadgen.by_endpoint))
          in
          Printf.printf "warm cache hit rate: %s\n%!"
            (String.concat ", "
               (List.map
                  (fun (id, rate) ->
                    Printf.sprintf "%s %.1f%%" id (100.0 *. rate))
                  hit_rates));
          let router =
            if n = max_shards then begin
              let r, _metrics = router_pass children in
              Printf.printf
                "via in-process router (%d shards, warm): %.1f req/s (direct \
                 warm %.1f req/s)\n"
                n r.Loadgen.throughput warm.Loadgen.merged.Loadgen.throughput;
              Some r
            end
            else None
          in
          {
            cl_shards = n;
            cl_cold = cold.Loadgen.merged;
            cl_warm = warm.Loadgen.merged;
            cl_hit_rates = hit_rates;
            cl_router = router;
          })
    in
    let rungs =
      List.filter_map
        (fun n ->
          try Some (run_rung n)
          with Failure e ->
            Printf.printf "cluster rung %d skipped: %s\n" n e;
            None)
        ladder
    in
    let find_rung n =
      List.find_opt (fun r -> r.cl_shards = n) rungs
    in
    let scaling =
      match (find_rung 1, find_rung max_shards) with
      | Some one, Some top
        when max_shards > 1 && one.cl_cold.Loadgen.throughput > 0.0 ->
          Some
            (top.cl_cold.Loadgen.throughput /. one.cl_cold.Loadgen.throughput)
      | _ -> None
    in
    (match scaling with
    | Some f ->
        Printf.printf "cold aggregate scaling %d vs 1 shards: %.2fx (%d \
                       cores, %d jobs/shard)\n"
          max_shards f cores shard_jobs
    | None -> ());
    (* The tracing rung: same top-rung cluster, shards run with
       --trace-out and --wide-events, three router passes over warm
       caches — untraced baseline, traced (the overhead figure), and
       traced with the hedge delay floored at zero so hedged requests
       demonstrably propagate their context to both shards.  Artifacts
       land next to BENCH_cluster.json: the merged Chrome trace, the
       merged METRICS histograms, and a spool reconciliation against
       the loadgen counts. *)
    let fetch_exposition socket =
      let client = Client.connect_unix socket in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          match Client.request client Protocol.Metrics with
          | Ok (Protocol.Metrics_frame body) -> Some body
          | Ok _ | Error _ -> None)
    in
    let run_traced () =
      let obs_dir = Filename.concat dir (Printf.sprintf "rip-bench-%d-obs" tag) in
      (try Unix.mkdir obs_dir 0o755
       with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let children =
        List.init max_shards (fun i ->
            Supervisor.spawn ~exe
              ~extra_args:
                [
                  "--jobs"; string_of_int shard_jobs;
                  "--trace-out"; obs_dir ^ "/";
                  "--wide-events"; obs_dir ^ "/";
                  "--wide-sample-ratio"; "1.0";
                ]
              ~id:(Printf.sprintf "s%d" i)
              ~socket:
                (Filename.concat dir
                   (Printf.sprintf "rip-bench-%d-t%d.sock" tag i))
              ())
      in
      Fun.protect
        ~finally:(fun () -> List.iter Supervisor.terminate children)
        (fun () ->
          List.iter
            (fun c ->
              match Supervisor.wait_ready c with
              | Ok () -> ()
              | Error e -> failwith e)
            children;
          let tracer = Trace.create ~scope:"router" ~pid:(Unix.getpid ()) () in
          let spool_path = Filename.concat obs_dir "wide-router.jsonl" in
          let spool =
            Wide_event.create ~sampler:Wide_event.keep_all spool_path
          in
          let traced_wl =
            Loadgen.workload ~distinct_nets:(Stdlib.min scale.nets 20)
              ~requests ~traced:true process
          in
          ignore (router_pass children) (* warm the shard caches *);
          let baseline, _ = router_pass children in
          let traced_cfg =
            {
              Router.default_config with
              tracer = Some tracer;
              spool = Some spool;
            }
          in
          let traced, traced_metrics =
            router_pass ~rconfig:traced_cfg ~wl:traced_wl children
          in
          let hedge_cfg =
            {
              traced_cfg with
              hedge_delay_floor = 0.0;
              hedge_delay_factor = 1e-4;
            }
          in
          let hedged, hedge_metrics =
            router_pass ~rconfig:hedge_cfg ~wl:traced_wl children
          in
          (* Merge every process's METRICS histograms before shutdown. *)
          let expositions =
            [ traced_metrics; hedge_metrics ]
            @ List.filter_map
                (fun c -> fetch_exposition (Supervisor.socket c))
                children
          in
          let merged_hists =
            List.fold_left
              (fun acc body ->
                List.fold_left
                  (fun acc (name, snap) ->
                    match List.assoc_opt name acc with
                    | None -> (name, snap) :: acc
                    | Some prior ->
                        (name, Obs.Histogram.merge prior snap)
                        :: List.remove_assoc name acc)
                  acc
                  (Obs.parse_histograms body))
              [] expositions
            |> List.sort (fun (a, _) (b, _) -> String.compare a b)
          in
          let hist_json =
            Printf.sprintf "{\n%s\n}\n"
              (String.concat ",\n"
                 (List.map
                    (fun (name, (s : Obs.Histogram.snapshot)) ->
                      let q p = Obs.Histogram.quantile s p in
                      Printf.sprintf
                        "  %S: { \"count\": %d, \"sum\": %.6f, \"p50\": %.6g, \
                         \"p95\": %.6g, \"p99\": %.6g }"
                        name s.Obs.Histogram.count s.Obs.Histogram.sum
                        (q 0.50) (q 0.95) (q 0.99))
                    merged_hists))
          in
          let out = open_out "BENCH_cluster_metrics.json" in
          output_string out hist_json;
          close_out out;
          (* Graceful shutdown flushes every shard's trace and spool. *)
          List.iter Supervisor.terminate children;
          let router_trace = Filename.concat obs_dir "trace-router.json" in
          Trace.dump_to_file tracer router_trace;
          Wide_event.close spool;
          let trace_files =
            router_trace
            :: List.init max_shards (fun i ->
                   Filename.concat obs_dir (Printf.sprintf "trace-s%d.json" i))
          in
          let trace_files = List.filter Sys.file_exists trace_files in
          (match Trace_merge.merge_files trace_files with
          | Error e -> failwith ("trace merge: " ^ e)
          | Ok merged ->
              let out = open_out "BENCH_cluster_trace.json" in
              output_string out merged;
              close_out out);
          (* Cross-process linkage: a shard span parenting under a router
             forward span, and a hedged trace forwarding to two shards. *)
          let dumps =
            List.filter_map
              (fun f -> Result.to_option (Trace_merge.load_file f))
              trace_files
          in
          let linked, multi =
            List.fold_left
              (fun (linked, multi) (_, spans) ->
                let is_forward (s : Trace_merge.trace_span) =
                  String.length s.span_name > 8
                  && String.sub s.span_name 0 8 = "forward:"
                in
                let forwards = List.filter is_forward spans in
                let targets =
                  List.sort_uniq String.compare
                    (List.map
                       (fun (s : Trace_merge.trace_span) -> s.span_name)
                       forwards)
                in
                let this_linked =
                  List.exists
                    (fun (s : Trace_merge.trace_span) ->
                      (not (is_forward s))
                      && List.exists
                           (fun (f : Trace_merge.trace_span) ->
                             (not (String.equal f.span_process s.span_process))
                             &&
                             match
                               ( List.assoc_opt "span_id" f.span_args,
                                 List.assoc_opt "parent_span_id" s.span_args )
                             with
                             | Some fid, Some pid -> String.equal fid pid
                             | _ -> false)
                           forwards)
                    spans
                in
                ( (linked + if this_linked then 1 else 0),
                  multi + if this_linked && List.length targets >= 2 then 1
                          else 0 ))
              (0, 0) (Trace_merge.traces dumps)
          in
          (* Spool reconciliation: interesting events are kept at 100%,
             so the router spool's counts must equal the loadgen's. *)
          let events = Wide_event.load_file spool_path in
          let count pred = List.length (List.filter pred events) in
          let spool_degraded =
            count (fun (e : Wide_event.t) -> e.outcome = "degraded")
          in
          let spool_timeouts =
            count (fun (e : Wide_event.t) -> e.outcome = "timeout")
          in
          let spool_hedged = count (fun (e : Wide_event.t) -> e.hedged) in
          let spool_total = List.length events in
          let scalar body name =
            Option.value ~default:0.0 (Obs.scalar body name)
          in
          let hedges_total =
            int_of_float
              (scalar traced_metrics "rip_router_hedges_total"
              +. scalar hedge_metrics "rip_router_hedges_total")
          in
          let lg_degraded = traced.Loadgen.degraded + hedged.Loadgen.degraded in
          let lg_timeouts = traced.Loadgen.timeouts + hedged.Loadgen.timeouts in
          let lg_total = traced.Loadgen.sent + hedged.Loadgen.sent in
          let reconciled =
            spool_degraded = lg_degraded
            && spool_timeouts = lg_timeouts
            && spool_hedged = hedges_total
            && spool_total = lg_total
          in
          let overhead =
            if baseline.Loadgen.throughput > 0.0 then
              1.0 -. (traced.Loadgen.throughput /. baseline.Loadgen.throughput)
            else 0.0
          in
          Printf.printf
            "tracing rung (%d shards, warm): untraced %.1f req/s, traced \
             %.1f req/s (overhead %.1f%%), hedge-forced %.1f req/s\n"
            max_shards baseline.Loadgen.throughput traced.Loadgen.throughput
            (100.0 *. overhead) hedged.Loadgen.throughput;
          Printf.printf
            "traces: %d linked across processes, %d hedged/failover; spool \
             reconciliation %s (degraded %d/%d, timeouts %d/%d, hedged \
             %d/%d, total %d/%d)\n"
            linked multi
            (if reconciled then "exact" else "MISMATCH")
            spool_degraded lg_degraded spool_timeouts lg_timeouts spool_hedged
            hedges_total spool_total lg_total;
          Printf.printf
            "wrote BENCH_cluster_trace.json (%d dumps) and \
             BENCH_cluster_metrics.json (%d histogram families)\n"
            (List.length trace_files) (List.length merged_hists);
          Printf.sprintf
            ",\n\
            \  \"tracing\": { \"baseline_throughput\": %.2f, \
             \"traced_throughput\": %.2f, \"overhead\": %.4f, \
             \"linked_traces\": %d, \"hedged_traces\": %d, \
             \"spool_events\": %d, \"spool_reconciled\": %b }"
            baseline.Loadgen.throughput traced.Loadgen.throughput overhead
            linked multi spool_total reconciled)
    in
    let tracing_json =
      if rungs = [] then ""
      else
        try run_traced ()
        with Failure e ->
          Printf.printf "tracing rung skipped: %s\n" e;
          ""
    in
    let json =
      let row ?hits ~shards ~pass (r : Loadgen.result) =
        Printf.sprintf
          "    { \"shards\": %d, \"pass\": %S, \"requests\": %d, \"fresh\": \
           %d, \"cached\": %d, \"degraded\": %d, \"wall_seconds\": %.4f, \
           \"throughput\": %.2f, \"p50_ms\": %.3f, \"p95_ms\": %.3f, \
           \"p99_ms\": %.3f%s }"
          shards pass r.Loadgen.sent r.Loadgen.solved_fresh
          r.Loadgen.solved_cached r.Loadgen.degraded r.Loadgen.wall_seconds
          r.Loadgen.throughput (r.Loadgen.p50 *. 1e3) (r.Loadgen.p95 *. 1e3)
          (r.Loadgen.p99 *. 1e3)
          (match hits with
          | None -> ""
          | Some hit_rates ->
              Printf.sprintf ", \"warm_hit_rates\": [ %s ]"
                (String.concat ", "
                   (List.map
                      (fun (id, rate) ->
                        Printf.sprintf "{ \"shard\": %S, \"hit_rate\": %.4f }"
                          id rate)
                      hit_rates)))
      in
      let rows =
        List.concat_map
          (fun rung ->
            [
              row ~shards:rung.cl_shards ~pass:"cold" rung.cl_cold;
              row ~hits:rung.cl_hit_rates ~shards:rung.cl_shards ~pass:"warm"
                rung.cl_warm;
            ]
            @
            match rung.cl_router with
            | Some r -> [ row ~shards:rung.cl_shards ~pass:"router-warm" r ]
            | None -> [])
          rungs
      in
      Printf.sprintf
        "{\n  \"cores\": %d,\n  \"shard_jobs\": %d,\n  \"requests\": %d,\n\
        \  \"cold_scaling\": %s,\n  \"runs\": [\n%s\n  ]%s\n}\n"
        cores shard_jobs requests
        (match scaling with
        | Some f -> Printf.sprintf "%.3f" f
        | None -> "null")
        (String.concat ",\n" rows)
        tracing_json
    in
    let out = open_out "BENCH_cluster.json" in
    output_string out json;
    close_out out;
    Printf.printf "wrote BENCH_cluster.json (%d rungs)\n" (List.length rungs)
  end

(* --- Restart: journal warm-start vs cold (BENCH_restart.json) ----------- *)

(* The crash-recovery experiment behind DESIGN §6e: solve a 20-net
   suite cold, replay it against the live warm cache, SIGKILL the shard
   (no grace, no footer — a real crash), restart it on the same
   --journal-dir, and replay once more against the journal-replayed
   cache.  The interesting ratios: replayed-warm should be within ~2x
   of live-warm (replay rebuilds the same cache; the residue is boot
   cost) and at least ~5x over cold (a cache hit skips the DP
   entirely).  Both are reported, not enforced — a loaded CI box blurs
   wall-clock ratios. *)
let run_restart () =
  section "Restart: cold vs live-warm vs journal-replayed-warm";
  let module Client = Rip_service.Client in
  let module Protocol = Rip_service.Protocol in
  let module Supervisor = Rip_router.Supervisor in
  let exe =
    match Sys.getenv_opt "RIP_SERVICED" with
    | Some exe -> exe
    | None ->
        Filename.concat
          (Filename.dirname (Filename.dirname Sys.executable_name))
          "bin/rip_serviced.exe"
  in
  if not (Sys.file_exists exe) then
    Printf.printf
      "skipped: rip_serviced not found at %s (set RIP_SERVICED or build \
       bin/rip_serviced.exe)\n"
      exe
  else begin
    let dir = Filename.get_temp_dir_name () in
    let tag = Unix.getpid () in
    let journal_dir =
      Filename.concat dir (Printf.sprintf "rip-bench-%d-journal" tag)
    in
    let socket =
      Filename.concat dir (Printf.sprintf "rip-bench-%d-restart.sock" tag)
    in
    let distinct_nets = 20 in
    let workload =
      Loadgen.workload ~distinct_nets ~requests:distinct_nets process
    in
    let child =
      Supervisor.spawn ~restart_backoff:0.0 ~exe
        ~extra_args:[ "--jobs"; "2"; "--journal-dir"; journal_dir ]
        ~id:"restart0" ~socket ()
    in
    let cleanup () =
      Supervisor.terminate child;
      let shard_dir = Filename.concat journal_dir "restart0" in
      (match Sys.readdir shard_dir with
      | names ->
          Array.iter
            (fun name ->
              try Sys.remove (Filename.concat shard_dir name)
              with Sys_error _ -> ())
            names;
          (try Unix.rmdir shard_dir with Unix.Unix_error _ -> ());
          (try Unix.rmdir journal_dir with Unix.Unix_error _ -> ())
      | exception Sys_error _ -> ())
    in
    Fun.protect ~finally:cleanup (fun () ->
        match Supervisor.wait_ready child with
        | Error e -> Printf.printf "skipped: %s\n" e
        | Ok () ->
            let connect () = Client.connect_unix socket in
            let pass label =
              let r = Loadgen.run ~connect ~connections:4 workload in
              Printf.printf "%-14s: %d requests (fresh %d, cached %d), %.1f \
                             req/s\n%!"
                label r.Loadgen.sent r.Loadgen.solved_fresh
                r.Loadgen.solved_cached r.Loadgen.throughput;
              r
            in
            let cold = pass "cold" in
            let live_warm = pass "live-warm" in
            (* A crash, not a shutdown: SIGKILL leaves no clean footer,
               so the restart exercises the full recovery scan. *)
            Supervisor.kill child;
            if not (Supervisor.restart_if_due child) then
              Printf.printf "skipped: shard did not respawn\n"
            else
              match Supervisor.wait_ready child with
              | Error e -> Printf.printf "skipped after restart: %s\n" e
              | Ok () ->
                  let replayed_warm = pass "replayed-warm" in
                  let cache_replayed =
                    match
                      let conn = Client.connect_unix socket in
                      Fun.protect
                        ~finally:(fun () -> Client.close conn)
                        (fun () -> Client.request conn Protocol.Metrics)
                    with
                    | Ok (Protocol.Metrics_frame body) -> (
                        match Obs.scalar body "rip_cache_replayed" with
                        | Some v -> int_of_float v
                        | None -> -1)
                    | Ok _ | Error _ | (exception Unix.Unix_error _) -> -1
                  in
                  let ratio a b = if b > 0.0 then a /. b else 0.0 in
                  let vs_cold =
                    ratio replayed_warm.Loadgen.throughput
                      cold.Loadgen.throughput
                  in
                  let vs_live =
                    ratio live_warm.Loadgen.throughput
                      replayed_warm.Loadgen.throughput
                  in
                  Printf.printf
                    "journal replayed %d records; replayed-warm %.1fx over \
                     cold (expect >= ~5x), live-warm %.2fx over replayed-warm \
                     (expect <= ~2x)\n"
                    cache_replayed vs_cold vs_live;
                  let row label (r : Loadgen.result) =
                    Printf.sprintf
                      "    { \"pass\": %S, \"requests\": %d, \"fresh\": %d, \
                       \"cached\": %d, \"wall_seconds\": %.4f, \
                       \"throughput\": %.2f, \"p50_ms\": %.3f, \"p99_ms\": \
                       %.3f }"
                      label r.Loadgen.sent r.Loadgen.solved_fresh
                      r.Loadgen.solved_cached r.Loadgen.wall_seconds
                      r.Loadgen.throughput (r.Loadgen.p50 *. 1e3)
                      (r.Loadgen.p99 *. 1e3)
                  in
                  let json =
                    Printf.sprintf
                      "{\n\
                      \  \"distinct_nets\": %d,\n\
                      \  \"cache_replayed\": %d,\n\
                      \  \"replayed_warm_over_cold\": %.3f,\n\
                      \  \"live_warm_over_replayed_warm\": %.3f,\n\
                      \  \"runs\": [\n%s\n  ]\n}\n"
                      distinct_nets cache_replayed vs_cold vs_live
                      (String.concat ",\n"
                         [
                           row "cold" cold;
                           row "live-warm" live_warm;
                           row "replayed-warm" replayed_warm;
                         ])
                  in
                  let out = open_out "BENCH_restart.json" in
                  output_string out json;
                  close_out out;
                  print_endline "wrote BENCH_restart.json")
  end

(* --- Engine batch-solve scaling (BENCH_suite.json) ---------------------- *)

(* Per-cell results modulo runtime: the determinism contract is that the
   solution arrays are bit-identical whatever the job count. *)
let suite_fingerprint runs =
  List.concat_map
    (fun (run : Experiments.net_run) ->
      List.map
        (fun (cell : Experiments.cell) ->
          match cell.Experiments.rip with
          | Ok r ->
              Ok
                ( Solution.repeaters r.Rip.solution,
                  r.Rip.total_width,
                  r.Rip.delay )
          | Error e -> Error (Rip.error_to_string e))
        run.Experiments.cells)
    runs

type suite_row = {
  row_backend : Rip_dp.Power_dp.backend;
  row_jobs : int;
  row_wall : float;
  row_telemetry : Telemetry.t;
  row_runs : Experiments.net_run list;
  row_labels_pruned : int;
  row_dp_columns : int;
}

let run_suite_bench scale jobs_list =
  section "Engine batch-solve scaling";
  (* Engine telemetry feeds an observability registry: one recorder per
     bench process, every ladder run observed into it, the exposition
     printed at the end (histogram bucket lines elided for brevity). *)
  let registry = Obs.create () in
  let recorder = Telemetry.Recorder.create registry in
  let nets = Suite.nets ~count:scale.nets () in
  let cells = scale.nets * scale.targets in
  (* The ladder runs once per DP backend: same nets, same targets, so the
     fingerprint check below doubles as the cross-backend bit-identity
     gate, and the jobs=1 rows give an apples-to-apples cells/s ratio. *)
  let one backend jobs =
    let name = Rip_dp.Power_dp.backend_name backend in
    Trace.span (Trace.global ()) ~cat:"bench"
      (Printf.sprintf "suite backend=%s jobs=%d" name jobs)
    @@ fun () ->
    let labels_pruned = Atomic.make 0 in
    let dp_columns = Atomic.make 0 in
    let hooks =
      (* Same counters the solve service keeps; atomics because with
         jobs > 1 the probe fires from every pool domain. *)
      Rip_core.Hooks.make
        ~probe:(function
          | Rip.Dp (Rip_dp.Power_dp.Column { collected; kept; _ }) ->
              Atomic.incr dp_columns;
              ignore (Atomic.fetch_and_add labels_pruned (collected - kept))
          | Rip.Refine _ -> ())
        ()
    in
    let config =
      { Config.default with
        Config.dp = { Config.default.Config.dp with Config.backend } }
    in
    let started = Unix.gettimeofday () in
    let runs, telemetry =
      Experiments.run_suite_stats ~jobs ~granularities:[] ~nets
        ~targets_per_net:scale.targets ~config ~hooks process
    in
    let wall = Unix.gettimeofday () -. started in
    Telemetry.Recorder.observe recorder telemetry;
    Printf.printf
      "backend=%-9s jobs=%-2d  wall %6.2fs  cpu %6.2fs  %6.1f cells/s  \
       utilization %3.0f%%  pruned %d/%d columns\n%!"
      name jobs wall telemetry.Telemetry.cpu_seconds
      (float_of_int cells /. wall)
      (100.0 *. telemetry.Telemetry.utilization)
      (Atomic.get labels_pruned) (Atomic.get dp_columns);
    { row_backend = backend; row_jobs = jobs; row_wall = wall;
      row_telemetry = telemetry; row_runs = runs;
      row_labels_pruned = Atomic.get labels_pruned;
      row_dp_columns = Atomic.get dp_columns }
  in
  let measurements =
    List.concat_map
      (fun backend -> List.map (one backend) jobs_list)
      [ Rip_dp.Power_dp.Reference; Rip_dp.Power_dp.Fast ]
  in
  (match measurements with
  | reference :: rest ->
      let reference_fp = suite_fingerprint reference.row_runs in
      List.iter
        (fun row ->
          if suite_fingerprint row.row_runs <> reference_fp then begin
            Printf.eprintf
              "DETERMINISM VIOLATION: backend=%s jobs=%d differs from \
               backend=%s jobs=%d\n"
              (Rip_dp.Power_dp.backend_name row.row_backend)
              row.row_jobs
              (Rip_dp.Power_dp.backend_name reference.row_backend)
              reference.row_jobs;
            exit 1
          end)
        rest;
      Printf.printf
        "outcome arrays identical across job counts and backends: yes\n"
  | [] -> ());
  (* Perf gate: at the first job count, the pruning backend must beat the
     reference — CI runs @bench-quick, so a Fast regression fails the
     build. *)
  (match jobs_list with
  | first_jobs :: _ ->
      let cps backend =
        List.find_map
          (fun r ->
            if r.row_backend = backend && r.row_jobs = first_jobs then
              Some (float_of_int cells /. r.row_wall)
            else None)
          measurements
      in
      (match (cps Rip_dp.Power_dp.Reference, cps Rip_dp.Power_dp.Fast) with
      | Some reference, Some fast ->
          Printf.printf "fast/reference cells/s at jobs=%d: %.1fx\n"
            first_jobs (fast /. reference);
          if fast <= reference then begin
            Printf.eprintf
              "PERF REGRESSION: fast backend (%.1f cells/s) does not beat \
               reference (%.1f cells/s) at jobs=%d\n"
              fast reference first_jobs;
            exit 1
          end
      | _, _ -> ())
  | [] -> ());
  (* Machine-readable perf trajectory for future PRs. *)
  let json =
    let row r =
      Printf.sprintf
        "    { \"nets\": %d, \"targets\": %d, \"backend\": %S, \
         \"jobs\": %d, \"wall_seconds\": %.4f, \"cpu_seconds\": %.4f, \
         \"cells_per_second\": %.2f, \"utilization\": %.3f, \
         \"labels_pruned\": %d, \"dp_columns\": %d }"
        scale.nets scale.targets
        (Rip_dp.Power_dp.backend_name r.row_backend)
        r.row_jobs r.row_wall r.row_telemetry.Telemetry.cpu_seconds
        (float_of_int cells /. r.row_wall)
        r.row_telemetry.Telemetry.utilization r.row_labels_pruned
        r.row_dp_columns
    in
    Printf.sprintf "{\n  \"runs\": [\n%s\n  ]\n}\n"
      (String.concat ",\n" (List.map row measurements))
  in
  let out = open_out "BENCH_suite.json" in
  output_string out json;
  close_out out;
  Printf.printf "wrote BENCH_suite.json (%d runs)\n" (List.length measurements);
  let contains_substring haystack needle =
    let nl = String.length needle and hl = String.length haystack in
    let rec at i = i + nl <= hl && (String.sub haystack i nl = needle || at (i + 1)) in
    at 0
  in
  print_string "\nengine registry (bucket samples elided):\n";
  String.split_on_char '\n' (Obs.render registry)
  |> List.filter (fun line -> not (contains_substring line "_bucket{"))
  |> List.iter print_endline

(* --- Entry point -------------------------------------------------------- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args = List.filter (fun a -> a <> "--") args in
  (* --jobs N caps the scaling ladder and sizes the sweeps' domain pool. *)
  let rec extract_jobs acc = function
    | [ "--jobs" ] ->
        prerr_endline "--jobs expects a value";
        exit 2
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some jobs when jobs >= 1 -> (Some jobs, List.rev acc @ rest)
        | Some _ | None ->
            Printf.eprintf "--jobs expects a positive integer, got %S\n" n;
            exit 2)
    | a :: rest -> extract_jobs (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let jobs_override, args = extract_jobs [] args in
  (* --trace-out FILE installs a global tracer: engine batches/jobs and
     the suite ladder leave spans, dumped as Chrome-trace JSON at exit.
     Without the flag every span hook is a nop. *)
  let rec extract_trace_out acc = function
    | [ "--trace-out" ] ->
        prerr_endline "--trace-out expects a file";
        exit 2
    | "--trace-out" :: file :: rest -> (Some file, List.rev acc @ rest)
    | a :: rest -> extract_trace_out (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let trace_out, args = extract_trace_out [] args in
  if Option.is_some trace_out then Trace.set_global (Some (Trace.create ()));
  let quick = List.mem "--quick" args in
  let scale = if quick then quick_scale else full_scale in
  let wanted = List.filter (fun a -> a <> "--quick") args in
  let wanted = if wanted = [] || List.mem "all" wanted then
      [ "table1"; "table2"; "tree"; "ablation"; "micro"; "service";
        "cluster"; "restart"; "suite" ]
    else wanted
  in
  let known =
    [ "table1"; "fig7"; "table2"; "tree"; "ablation"; "micro"; "service";
      "cluster"; "restart"; "suite" ]
  in
  List.iter
    (fun w ->
      if not (List.mem w known) then begin
        Printf.eprintf "unknown experiment %S (known: %s)\n" w
          (String.concat ", " known);
        exit 2
      end)
    wanted;
  (* fig7 shares table1's sweep; run it once when either is requested. *)
  if List.mem "table1" wanted || List.mem "fig7" wanted then
    run_table1_fig7 ?jobs:jobs_override scale;
  if List.mem "table2" wanted then run_table2 ?jobs:jobs_override scale;
  if List.mem "tree" wanted then run_tree scale;
  if List.mem "ablation" wanted then run_ablation scale;
  if List.mem "micro" wanted then run_micro ();
  if List.mem "service" wanted then run_service scale;
  if List.mem "cluster" wanted then run_cluster scale;
  if List.mem "restart" wanted then run_restart ();
  if List.mem "suite" wanted then begin
    (* The scaling ladder: sequential, then the machine's own pool size.
       Never force more domains than the machine recommends — an
       oversubscribed pool serialises on minor-GC synchronisation and
       benchmarks slower than jobs=1 (use --jobs to override). *)
    let top =
      match jobs_override with
      | Some jobs -> jobs
      | None -> Engine.default_jobs ()
    in
    let ladder = if top <= 1 then [ 1 ] else [ 1; top ] in
    run_suite_bench (if quick then quick_scale else scale) ladder
  end;
  match (trace_out, Trace.global ()) with
  | Some file, Some tracer ->
      Trace.dump_to_file tracer file;
      Printf.printf "wrote %d trace spans to %s\n"
        (Trace.span_count tracer) file
  | _ -> ()
