(* perfbench: the benchmark of record.

     perfbench --workload batch|serve-warm|serve-mixed --seed N
               --seconds S --trace 0|1

   Prints one line per metric (value, unit, sample count) and, last,
   one JSON result line.  --trace 0 reports the end-to-end metrics,
   --trace 1 the per-layer ones.  Exit status: 0 on a good run, 1 when
   an output was wrong, 3 when the measurement is invalid (the
   generator fell behind), 2 on a usage or set-up error (no result
   line). *)

open Perfbench_lib

let usage =
  "perfbench --workload batch|serve-warm|serve-mixed [--seed N] [--seconds S] [--trace 0|1]"

let fail_usage msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline usage;
  exit 2

let parse argv =
  let rec go acc = function
    | [] -> acc
    | ("--workload" | "--seed" | "--seconds" | "--trace") as k :: v :: rest ->
        go ((k, v) :: acc) rest
    | a :: _ -> fail_usage (Printf.sprintf "unexpected argument %S" a)
  in
  let opts = go [] (List.tl (Array.to_list argv)) in
  let get k = List.assoc_opt k opts in
  let int_of k default =
    match get k with
    | None -> default
    | Some v -> (
        match int_of_string_opt v with
        | Some i -> i
        | None -> fail_usage (Printf.sprintf "%s wants an integer, got %S" k v))
  in
  let workload =
    match get "--workload" with
    | Some w -> w
    | None -> fail_usage "--workload is required"
  in
  let seconds = int_of "--seconds" 20 in
  if seconds < 1 then fail_usage "--seconds must be at least 1";
  let trace =
    match int_of "--trace" 0 with
    | 0 -> false
    | 1 -> true
    | _ -> fail_usage "--trace is 0 or 1"
  in
  (workload, int_of "--seed" 0, float_of_int seconds, trace)

let () =
  let workload, seed, seconds, trace = parse Sys.argv in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let on_signal _ =
    Cluster.kill_all ();
    exit 2
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  at_exit Cluster.kill_all;
  let r = Report.create () in
  let run =
    match (workload, trace) with
    | "batch", false -> fun () -> Batch.run_e2e r ~seed ~seconds
    | "batch", true -> fun () -> Batch.run_traced r ~seed ~seconds
    | "serve-warm", false -> fun () -> Serve.run_e2e Serve.warm r ~seed ~seconds
    | "serve-warm", true -> fun () -> Serve.run_traced Serve.warm r ~seed ~seconds
    | "serve-mixed", false -> fun () -> Serve.run_e2e Serve.mixed r ~seed ~seconds
    | "serve-mixed", true -> fun () -> Serve.run_traced Serve.mixed r ~seed ~seconds
    | w, _ -> fail_usage (Printf.sprintf "unknown workload %S" w)
  in
  (match run () with
  | () -> ()
  | exception Serve.Setup_failed msg ->
      prerr_endline ("perfbench: set-up failed: " ^ msg);
      exit 2);
  let specs = if trace then Metric.per_layer else Metric.end_to_end in
  Report.print ~workload ~specs r;
  exit (Report.exit_code r)
