(* Tests for the benchmark's own logic: the percentile rule, due-time
   latency in the open loop, backlog detection, the unattributed
   residual, and the metric names against BENCHMARK.json. *)

open Perfbench_lib

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float msg expected actual =
  Alcotest.(check bool) (Printf.sprintf "%s: %g vs %g" msg expected actual) true
    (feq ~eps:1e-6 expected actual)

(* --- percentile rule --- *)

let test_percentile_rule () =
  Alcotest.(check int) "1000 samples leave 10 beyond p99" 10 (Stat.samples_beyond ~n:1000 0.99);
  Alcotest.(check bool) "p99 supported at 1000" true (Stat.supported ~n:1000 0.99);
  Alcotest.(check bool) "p99 not supported at 999" false (Stat.supported ~n:999 0.99);
  Alcotest.(check bool) "p95 supported at 200" true (Stat.supported ~n:200 0.95);
  Alcotest.(check bool) "p50 not supported at 19" false (Stat.supported ~n:19 0.5);
  let xs = List.init 101 float_of_int in
  check_float "median of 0..100" 50.0 (Stat.median xs);
  check_float "p99 of 0..100" 99.0 (Stat.quantile 0.99 xs);
  (* Blocks of >= 1000: one noisy block of four does not set the p99. *)
  let block b = List.init 1000 (fun i -> if b = 2 && i >= 900 then 100.0 else float_of_int (i mod 10)) in
  let xs = List.concat_map block [ 0; 1; 2; 3 ] in
  check_float "blocked p99 ignores one noisy block" 9.0 (Stat.blocked_quantile 0.99 xs);
  Alcotest.(check bool) "plain p99 does not" true (Stat.quantile 0.99 xs > 9.0);
  check_float "short samples fall back to the plain quantile"
    (Stat.quantile 0.99 (block 2)) (Stat.blocked_quantile 0.99 (block 2))

(* --- open loop --- *)

let sample ~due ~sent ~recv =
  { Openloop.due; sent; recv; answer = "" }

let test_due_time_accounting () =
  let s = sample ~due:1.0 ~sent:1.25 ~recv:1.5 in
  check_float "latency counts from the due time" 0.5 (Openloop.latency s);
  check_float "lateness is sent minus due" 0.25 (Openloop.lateness s);
  let sched = Openloop.schedule ~start:10.0 ~rate:100.0 ~duration:2.0 in
  Alcotest.(check int) "rate x duration requests" 200 (Array.length sched);
  check_float "fixed interval" 10.01 sched.(1).Openloop.due;
  check_float "last due" 11.99 sched.(199).Openloop.due

(* A server on a socketpair that answers PONG to each PING, stalling
   once for 60 ms: every request queued behind the stall must carry it
   in its latency, because latency counts from when it was due. *)
let test_open_loop_charges_stalls () =
  let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let stall_at = 5 in
  let serve () =
    let ic = Unix.in_channel_of_descr server in
    let rec loop k =
      match input_line ic with
      | _ ->
          if k = stall_at then Thread.delay 0.06;
          Rip_service.Wire.send server "PONG\n";
          loop (k + 1)
      | exception End_of_file -> ()
    in
    loop 0
  in
  let th = Thread.create serve () in
  let start = Openloop.now () +. 0.01 in
  let samples = Openloop.schedule ~start ~rate:500.0 ~duration:0.1 in
  Openloop.run ~drain:2.0 ~fds:[| client |] ~dispatch:(Openloop.Fixed (fun _ -> 0))
    ~frame:(fun _ -> "PING\n") samples;
  Unix.shutdown client Unix.SHUTDOWN_SEND;
  Thread.join th;
  Unix.close client;
  Unix.close server;
  Array.iter
    (fun s -> Alcotest.(check string) "answer kept" "PONG\n" s.Openloop.answer)
    samples;
  (* request 6 was due 2 ms after the stalled one, so it waited ~58 ms *)
  let l6 = Openloop.latency samples.(stall_at + 1) in
  Alcotest.(check bool) (Printf.sprintf "stall charged to the next request (%.3f s)" l6)
    true (l6 >= 0.05);
  Alcotest.(check bool) "requests before the stall are fast" true
    (Openloop.latency samples.(0) < 0.05)

let test_backlog_detection () =
  let n = 1000 and rate = 500.0 in
  let steady =
    Array.init n (fun i ->
        let due = float_of_int i /. rate in
        sample ~due ~sent:due ~recv:(due +. 0.002))
  in
  let stop = float_of_int (n - 1) /. rate in
  Alcotest.(check bool) "a system keeping up has no growing backlog" false
    (Openloop.backlog_growing steady ~start:0.0 ~stop);
  (* Served at 80 % of the offered rate: the queue grows all window. *)
  let overloaded =
    Array.init n (fun i ->
        let due = float_of_int i /. rate in
        sample ~due ~sent:due ~recv:(float_of_int (i + 1) /. (0.8 *. rate)))
  in
  Alcotest.(check bool) "an overloaded system's backlog grows" true
    (Openloop.backlog_growing overloaded ~start:0.0 ~stop);
  (* A one-off stall that drains before the last fifth is not growth. *)
  let stalled =
    Array.init n (fun i ->
        let due = float_of_int i /. rate in
        let recv = if i >= 300 && i < 320 then 0.66 else due +. 0.002 in
        sample ~due ~sent:due ~recv)
  in
  Alcotest.(check bool) "a drained stall is not a growing backlog" false
    (Openloop.backlog_growing stalled ~start:0.0 ~stop);
  Alcotest.(check int) "in flight counts due-but-unanswered" 20
    (Openloop.in_flight_at stalled 0.639)

(* A stub shard that answers every SOLVE frame with an ERROR line, as a
   regressed shard answering fast errors would.  A nominal window of
   such answers must fail the run; the same answers on a ladder rung
   only fail the rung. *)
let stub_window inputs ~requests =
  let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let serve () =
    let ic = Unix.in_channel_of_descr server in
    let rec loop () =
      match input_line ic with
      | "END" ->
          Rip_service.Wire.send server "ERROR internal stub\n";
          loop ()
      | _ -> loop ()
      | exception End_of_file -> ()
    in
    loop ()
  in
  let th = Thread.create serve () in
  let start = Openloop.now () +. 0.01 in
  let samples = Openloop.schedule ~start ~rate:1000.0 ~duration:(float_of_int requests /. 1000.0) in
  let pair_of = Array.sub inputs.Serve.stream 0 (Array.length samples) in
  Openloop.run ~drain:2.0 ~fds:[| client |] ~dispatch:(Openloop.Fixed (fun _ -> 0))
    ~frame:(fun i -> inputs.Serve.pairs.(pair_of.(i)).Serve.frame) samples;
  Unix.shutdown client Unix.SHUTDOWN_SEND;
  Thread.join th;
  Unix.close client;
  Unix.close server;
  { Serve.rate = 1000.0; samples; pair_of; start;
    stop = samples.(Array.length samples - 1).Openloop.due; cpu_seconds = 0.0;
    elapsed = 0.0 }

let test_failed_answers () =
  let inputs = Serve.inputs Serve.warm ~seed:0 ~requests:40 in
  let w = stub_window inputs ~requests:20 in
  Array.iter
    (fun s ->
      Alcotest.(check string) "stub answered" "ERROR internal stub\n" s.Openloop.answer)
    w.Serve.samples;
  Alcotest.(check bool) "a failed answer is never a fast latency" true
    (List.for_all (fun l -> l = Float.infinity) (Serve.latencies_ms w));
  let r = Report.create () in
  Serve.judge r inputs ~nominal:w ~rungs:[];
  Alcotest.(check int) "nominal failures are wrong answers" 20 (List.length r.Report.wrong);
  Alcotest.(check int) "and counted once in failed" 20 r.Report.failed;
  Alcotest.(check int) "the run exits 1" 1 (Report.exit_code r);
  let empty = { w with Serve.samples = [||]; pair_of = [||] } in
  let r = Report.create () in
  Serve.judge r inputs ~nominal:empty ~rungs:[ w ];
  Alcotest.(check int) "rung failures are not wrong" 0 (List.length r.Report.wrong);
  Alcotest.(check int) "but count in failed" 20 r.Report.failed;
  Alcotest.(check int) "and the run exits 0" 0 (Report.exit_code r)

let test_frame_end () =
  let r = "RESULT cached\nwidth 1\ndelay 2\npower 3\nEND\nBUSY\n" in
  Alcotest.(check (option int)) "multi-line frame runs to END" (Some 42)
    (Openloop.frame_end r 0);
  Alcotest.(check (option int)) "single-line frame" (Some 47) (Openloop.frame_end r 42);
  Alcotest.(check (option int)) "incomplete frame" None
    (Openloop.frame_end "RESULT fresh\nwidth 1\n" 0)

(* --- budget --- *)

let span name start stop = { Budget.name; start; stop }

let test_self_times () =
  let spans =
    [ span "ingress" 0.0 10.0; span "forward:s0" 1.0 9.0; span "cache_lookup" 4.0 5.0 ]
  in
  let self = Budget.self_times spans in
  check_float "ingress self" 2.0 (List.assoc "ingress" self);
  check_float "forward self" 7.0 (List.assoc "forward:s0" self);
  check_float "leaf self" 1.0 (List.assoc "cache_lookup" self);
  (* overlapping children (a hedge) are counted once *)
  let hedged =
    [ span "ingress" 0.0 10.0; span "forward:s0" 1.0 8.0; span "forward:s1" 6.0 9.0 ]
  in
  check_float "overlap counted once" 2.0 (List.assoc "ingress" (Budget.self_times hedged))

let test_unattributed () =
  let layer_of = function
    | "ingress" -> Some "router.ingress"
    | n when String.starts_with ~prefix:"forward:" n -> Some "router.forward"
    | _ -> None
  in
  let r1 = Budget.per_layer ~layer_of [ span "ingress" 0.0 2.0; span "forward:s0" 0.5 1.5 ] in
  check_float "per-layer ingress" 1.0 (List.assoc "router.ingress" r1);
  check_float "per-layer forward" 1.0 (List.assoc "router.forward" r1);
  (* 20 requests: the middle tenth (ranks 9 and 10 by end-to-end time)
     sets the budget, and a layer a request skipped counts as 0. *)
  let requests =
    List.init 20 (fun i ->
        let e2e = float_of_int i in
        if i = 9 then (e2e, [ ("router.ingress", 4.0) ])
        else (e2e, [ ("router.ingress", 2.0); ("router.forward", e2e) ]))
  in
  let band = Budget.median_band requests in
  check_float "band mean of a layer" 3.0 (List.assoc "router.ingress" band);
  check_float "skipped layer counts as 0" 5.0 (List.assoc "router.forward" band);
  Alcotest.(check int) "empty input, empty budget" 0 (List.length (Budget.median_band []));
  check_float "residual share" 0.5
    (Budget.unattributed_frac ~e2e_p50:4.0 ~layers:[ ("a", 1.5); ("b", 0.5) ]);
  check_float "over-accounting is negative" (-0.25)
    (Budget.unattributed_frac ~e2e_p50:4.0 ~layers:[ ("a", 5.0) ]);
  check_float "empty end-to-end" 0.0 (Budget.unattributed_frac ~e2e_p50:0.0 ~layers:[])

(* --- metric names --- *)

let test_metric_names () =
  List.iter
    (fun (s : Metric.spec) ->
      Alcotest.(check bool) ("valid name " ^ s.Metric.name) true (Metric.valid_name s.Metric.name);
      Alcotest.(check bool) ("valid unit " ^ s.Metric.unit_) true (Metric.valid_unit s.Metric.unit_))
    Metric.all;
  let names = List.map (fun s -> s.Metric.name) Metric.all in
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  List.iter
    (fun bad -> Alcotest.(check bool) ("rejects " ^ bad) false (Metric.valid_name bad))
    [ ""; ".p99"; "_x"; "lat ms"; "a/b"; "p99%"; String.make 65 'a' ];
  Alcotest.(check bool) "64 letters is the limit" true (Metric.valid_name (String.make 64 'a'));
  Alcotest.(check bool) "unit 1/s" true (Metric.valid_unit "1/s");
  Alcotest.(check bool) "unit with space" false (Metric.valid_unit "m s")

let names_of json key =
  match Option.bind (Rip_obs.Json.member key json) Rip_obs.Json.list_value with
  | None -> Alcotest.failf "BENCHMARK.json has no %s list" key
  | Some l ->
      List.filter_map
        (fun m -> Option.bind (Rip_obs.Json.member "name" m) Rip_obs.Json.string_value)
        l

let test_benchmark_json () =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  match Rip_obs.Json.parse text with
  | Error e -> Alcotest.failf "BENCHMARK.json: %s" e
  | Ok json ->
      Alcotest.(check (list string)) "end_to_end names"
        (List.map (fun s -> s.Metric.name) Metric.end_to_end)
        (names_of json "end_to_end");
      Alcotest.(check (list string)) "per_layer names"
        (List.map (fun s -> s.Metric.name) Metric.per_layer)
        (names_of json "per_layer");
      Alcotest.(check (list string)) "workloads" [ "batch"; "serve-warm"; "serve-mixed" ]
        (names_of json "workloads");
      (* Each serving workload's "why" records its ladder, nominal rate
         and p99 limit as the code runs them. *)
      let why name =
        Option.bind (Rip_obs.Json.member "workloads" json) Rip_obs.Json.list_value
        |> Option.value ~default:[]
        |> List.find_map (fun w ->
               match Option.bind (Rip_obs.Json.member "name" w) Rip_obs.Json.string_value with
               | Some n when String.equal n name ->
                   Option.bind (Rip_obs.Json.member "why" w) Rip_obs.Json.string_value
               | _ -> None)
        |> Option.value ~default:""
      in
      List.iter
        (fun (spec : Serve.spec) ->
          let summary = Serve.ladder_summary spec in
          Alcotest.(check bool)
            (Printf.sprintf "%s why ends with %S" spec.Serve.name summary)
            true
            (String.ends_with ~suffix:summary (why spec.Serve.name)))
        [ Serve.warm; Serve.mixed ]

let test_readme_table () =
  let text = In_channel.with_open_bin "README.md" In_channel.input_all in
  List.iter
    (fun (s : Metric.spec) ->
      let row = Printf.sprintf "| `%s` | %s |" s.Metric.name s.Metric.unit_ in
      let found =
        let n = String.length row and m = String.length text in
        let rec scan i = i + n <= m && (String.sub text i n = row || scan (i + 1)) in
        scan 0
      in
      Alcotest.(check bool) ("README.md has a row for " ^ s.Metric.name) true found)
    Metric.all

let test_result_line () =
  let specs = [ Metric.find "setup_s"; Metric.find "latency_p50_ms" ] in
  let line =
    Metric.result_line ~correct:true ~attempted:3 ~failed:0 ~specs
      [ ("setup_s", 0.5); ("latency_p50_ms", Float.nan) ]
  in
  match Rip_obs.Json.parse line with
  | Error e -> Alcotest.failf "result line is not JSON: %s" e
  | Ok json ->
      let v name =
        Option.bind (Rip_obs.Json.member "metrics" json) (Rip_obs.Json.member name)
        |> Fun.flip Option.bind (Rip_obs.Json.member "value")
        |> Fun.flip Option.bind Rip_obs.Json.float_value
      in
      Alcotest.(check (option (float 0.0))) "value kept" (Some 0.5) (v "setup_s");
      Alcotest.(check (option (float 0.0))) "NaN printed as 0" (Some 0.0) (v "latency_p50_ms")

let () =
  Alcotest.run "perfbench"
    [
      ("stat", [ Alcotest.test_case "percentile rule" `Quick test_percentile_rule ]);
      ( "openloop",
        [
          Alcotest.test_case "due-time accounting" `Quick test_due_time_accounting;
          Alcotest.test_case "stalls are charged" `Quick test_open_loop_charges_stalls;
          Alcotest.test_case "backlog detection" `Quick test_backlog_detection;
          Alcotest.test_case "frame boundaries" `Quick test_frame_end;
          Alcotest.test_case "failed answers fail the run" `Quick test_failed_answers;
        ] );
      ( "budget",
        [
          Alcotest.test_case "self times" `Quick test_self_times;
          Alcotest.test_case "unattributed residual" `Quick test_unattributed;
        ] );
      ( "metric",
        [
          Alcotest.test_case "name character set" `Quick test_metric_names;
          Alcotest.test_case "BENCHMARK.json agrees" `Quick test_benchmark_json;
          Alcotest.test_case "README.md documents every metric" `Quick test_readme_table;
          Alcotest.test_case "result line" `Quick test_result_line;
        ] );
    ]
