(* The benchmark's metrics: names, units and directions, the layer each
   belongs to, and the end-to-end figure a per-layer metric should
   move.  BENCHMARK.json and README.md list the same names; the tests
   check all three agree. *)

type better = Lower | Higher

type spec = {
  name : string;
  unit_ : string;
  better : better;
  layer : string;  (* the module whose work it measures *)
  moves : string;  (* which end-to-end metric, on which workload *)
}

let valid_name name =
  let n = String.length name in
  n >= 1 && n <= 64
  && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       name

let valid_unit u =
  let n = String.length u in
  n >= 1 && n <= 16
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
         | _ -> false)
       u

let e2e name unit_ better moves = { name; unit_; better; layer = "end-to-end"; moves }
let layer layer name unit_ better moves = { name; unit_; better; layer; moves }

let end_to_end =
  [
    e2e "solves_per_s" "1/s" Higher
      "batch: solves per wall second; serve-*: answers per second at the nominal rate";
    e2e "max_rate_rps" "1/s" Higher
      "serve-*: highest ladder rung sustained; batch: the single-thread solve rate";
    e2e "latency_p50_ms" "ms" Lower "batch: per solve; serve-*: per request at the nominal rate";
    e2e "total_width_u" "u" Lower
      "summed repeater width of the distinct answers (the paper's power proxy)";
    e2e "cpu_ms_per_op" "ms" Lower
      "CPU of the system's processes over the timed window per completed operation";
    e2e "peak_rss_mb" "MB" Lower "highest VmHWM among the system's processes";
    e2e "setup_s" "s" Lower
      "batch: Geometry.of_net + Rip.tau_min; serve-*: spawn to ready plus pre-warm";
  ]

let sw = "serve-warm"
let sm = "serve-mixed"

let per_layer =
  [
    layer "end-to-end" "latency_p99_ms" "ms" Lower
      "none: the tail of latency_p50_ms's window; printed by every run";
    layer "rip_net" "net.parse_us" "us" Lower (sw ^ " latency_p50_ms, max_rate_rps");
    layer "rip_net" "net.digest_us" "us" Lower (sw ^ " latency_p50_ms, max_rate_rps");
    layer "rip_net" "net.geometry_us" "us" Lower "batch setup_s";
    layer "rip_core" "core.solve_ms.p50" "ms" Lower "batch solves_per_s";
    layer "rip_core" "core.solve_ms.p99" "ms" Lower
      ("batch latency_p99_ms, " ^ sm ^ " latency_p99_ms");
    layer "rip_core" "core.tau_min_ms" "ms" Lower "batch setup_s";
    layer "rip_core" "core.rescue_count" "count" Lower "batch latency_p99_ms";
    layer "rip_core" "core.fallback_library_count" "count" Lower "batch latency_p99_ms";
    layer "rip_core" "core.residual_frac" "ratio" Lower "batch solves_per_s";
    layer "rip_dp" "dp.coarse_ms" "ms" Lower "batch solves_per_s";
    layer "rip_dp" "dp.final_ms" "ms" Lower "batch solves_per_s";
    layer "rip_dp" "dp.rescue_ms" "ms" Lower "batch latency_p99_ms";
    layer "rip_dp" "dp.columns" "count" Lower "batch solves_per_s";
    layer "rip_dp" "dp.labels_collected" "count" Lower "batch solves_per_s";
    layer "rip_dp" "dp.labels_kept" "count" Lower "batch solves_per_s";
    layer "rip_dp" "dp.prune_ratio" "ratio" Lower "batch solves_per_s";
    layer "rip_dp" "dp.cap_bound_columns" "count" Lower "batch total_width_u";
    layer "rip_dp" "dp.ns_per_label" "ns" Lower "batch solves_per_s";
  ]
  @ List.map
      (fun (bin, _) ->
        layer "rip_dp" ("dp.ns_per_label." ^ bin) "ns" Lower "batch solves_per_s")
      Solver_layers.nb_bins
  @ [
      layer "rip_refine" "refine.ms" "ms" Lower "batch solves_per_s";
      layer "rip_refine" "refine.iterations" "count" Lower "batch solves_per_s";
      layer "rip_refine" "refine.moves" "count" Lower "batch solves_per_s";
      layer "rip_refine" "refine.converged_frac" "ratio" Higher "batch total_width_u";
      layer "rip_service" "service.queue_wait_ms.p50" "ms" Lower (sm ^ " latency_p99_ms");
      layer "rip_service" "service.queue_wait_ms.p99" "ms" Lower (sm ^ " latency_p99_ms");
      layer "rip_service" "service.solve_cpu_ms.p50" "ms" Lower (sm ^ " max_rate_rps");
      layer "rip_service" "service.solve_cpu_ms.p99" "ms" Lower (sm ^ " latency_p99_ms");
      layer "rip_service" "service.cache_hit_ratio" "ratio" Higher (sm ^ " max_rate_rps");
      layer "rip_service" "service.busy" "count" Lower (sm ^ " max_rate_rps");
      layer "rip_service" "service.degraded" "count" Lower (sm ^ " max_rate_rps");
      layer "rip_service" "service.timeouts" "count" Lower (sm ^ " max_rate_rps");
      layer "rip_service" "journal.appends" "count" Lower (sm ^ " latency_p99_ms");
      layer "rip_service" "journal.fsyncs" "count" Lower (sm ^ " latency_p99_ms");
      layer "rip_service" "journal.bytes_per_insert" "B" Lower (sm ^ " latency_p99_ms");
      layer "rip_service" "protocol.parse_us" "us" Lower (sw ^ " latency_p50_ms");
      layer "rip_service" "protocol.encode_us" "us" Lower (sw ^ " latency_p50_ms");
      layer "rip_service" "cache.find_us" "us" Lower (sw ^ " latency_p50_ms");
      layer "rip_router" "router.hop_ms" "ms" Lower (sw ^ " latency_p50_ms, max_rate_rps");
      layer "rip_router" "router.forward_ms.p50" "ms" Lower (sw ^ " latency_p50_ms");
      layer "rip_router" "router.forward_ms.p99" "ms" Lower (sm ^ " latency_p99_ms");
      layer "rip_router" "router.ring_lookup_us" "us" Lower (sw ^ " latency_p50_ms");
      layer "rip_router" "router.hedges" "count" Lower (sm ^ " latency_p99_ms");
      layer "rip_router" "router.hedge_win_ratio" "ratio" Higher (sm ^ " latency_p99_ms");
      layer "rip_router" "router.failovers" "count" Lower (sm ^ " latency_p99_ms");
      layer "rip_router" "router.shed" "count" Lower (sm ^ " max_rate_rps");
      layer "rip_obs" "obs.trace_overhead_frac" "ratio" Lower "every workload, traced runs only";
      layer "rip_obs" "budget.unattributed_frac" "ratio" Lower
        "none: the share of end-to-end p50 no layer accounts for";
      layer "validity" "failed_frac" "ratio" Lower "every workload (also gates the exit code)";
      layer "validity" "degraded_frac" "ratio" Lower "serve-* (DEGRADED answers over attempted)";
      layer "validity" "generator.late_ms.p99" "ms" Lower
        "none: open-loop generator lateness; a run past the limit is invalid";
    ]

let all = end_to_end @ per_layer
let find name = List.find (fun s -> String.equal s.name name) all

(* The JSON number for a value: every digit kept, never NaN/inf. *)
let json_number v =
  if Float.is_finite v then
    let s = Printf.sprintf "%.17g" v in
    (* integral values print without a point, which is valid JSON *)
    s
  else "0"

(* The result line: exactly [correct], [attempted], [failed], [metrics],
   each metric as {"value": v, "unit": u}, in [specs] order. *)
let result_line ~correct ~attempted ~failed ~specs values =
  let metric s =
    let v = Option.value ~default:0.0 (List.assoc_opt s.name values) in
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" s.name (json_number v) s.unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric specs))
