(* The [batch] workload: the paper's Table 1/2 experiment.  Section-6
   suite nets times the 20 timing targets 1.05..2.05 tau_min, solved
   in-process one after another with [Rip.solve] and the default
   configuration.  Its time is almost all rip_dp and rip_refine; it
   never touches rip_service or rip_router. *)

module Rip = Rip_core.Rip
module Geometry = Rip_net.Geometry

let now = Rip_numerics.Cpu_clock.monotonic_seconds
let process = Inputs.process

type item = { net : Rip_net.Net.t; geometry : Geometry.t; budget : float }

type setup = {
  items : item array;
  geometry_us : float list;  (* one Geometry.of_net per net *)
  tau_min_ms : float list;  (* one Rip.tau_min per net *)
}

(* Set-up is what a batch caller pays before the first solve: one
   prefix-sum geometry and one tau_min anchor per net. *)
let setup nets =
  let per_net =
    List.map
      (fun net ->
        let t0 = now () in
        let geometry = Geometry.of_net net in
        let t1 = now () in
        let tau_min = Rip.tau_min process geometry in
        let t2 = now () in
        let budgets = Rip_workload.Suite.timing_targets ~tau_min () in
        ( List.map (fun budget -> { net; geometry; budget }) budgets,
          (t1 -. t0) *. 1e6,
          (t2 -. t1) *. 1e3 ))
      nets
  in
  {
    items = Array.of_list (List.concat_map (fun (i, _, _) -> i) per_net);
    geometry_us = List.map (fun (_, g, _) -> g) per_net;
    tau_min_ms = List.map (fun (_, _, t) -> t) per_net;
  }

let setup_seconds s = (Stat.sum s.geometry_us /. 1e6) +. (Stat.sum s.tau_min_ms /. 1e3)

let problem item =
  Rip.problem ~geometry:item.geometry process item.net ~budget:item.budget

type window = {
  latencies_ms : float list;  (* per solve, wall *)
  fastest_ms : float array;  (* per item, its fastest solve, wall *)
  fastest_cpu_ms : float array;  (* per item, its least CPU time *)
  solves : int;
  elapsed : float;
  first : Rip.report option array;  (* the first answer per item *)
  failures : string list;
  records : Solver_layers.record list;  (* traced windows only *)
  distinct : Solver_layers.record option array;
}

(* Solve items cyclically from index 0, in whole passes, until
   [seconds] have passed, so every item is solved equally often.  A
   repeat solve must reproduce the first answer exactly. *)
let run ~traced ~seconds setup =
  let n = Array.length setup.items in
  let first = Array.make n None in
  let distinct = Array.make n None in
  let failures = ref [] and latencies = ref [] and records = ref [] in
  let fastest = Array.make n Float.infinity in
  let fastest_cpu = Array.make n Float.infinity in
  let solves = ref 0 in
  let started = now () in
  let deadline = started +. seconds in
  let i = ref 0 in
  while !i mod n <> 0 || now () < deadline do
    let k = !i mod n in
    let item = setup.items.(k) in
    let c0 = Proc.self_cpu_seconds () in
    let t0 = now () in
    let result, record =
      if traced then
        let r, rec_ = Solver_layers.solve (problem item) in
        (r, Some rec_)
      else (Rip.solve (problem item), None)
    in
    let t1 = now () in
    let c1 = Proc.self_cpu_seconds () in
    latencies := (t1 -. t0) *. 1000.0 :: !latencies;
    fastest.(k) <- Float.min fastest.(k) ((t1 -. t0) *. 1000.0);
    fastest_cpu.(k) <- Float.min fastest_cpu.(k) ((c1 -. c0) *. 1000.0);
    incr solves;
    (match record with
    | Some r ->
        records := r :: !records;
        if Option.is_none distinct.(k) then distinct.(k) <- Some r
    | None -> ());
    (match (result, first.(k)) with
    | Error e, _ ->
        failures :=
          Printf.sprintf "item %d: %s" k (Rip.error_to_string e) :: !failures
    | Ok report, None -> first.(k) <- Some report
    | Ok report, Some f ->
        if not (Rip_elmore.Solution.equal report.Rip.solution f.Rip.solution)
        then
          failures :=
            Printf.sprintf "item %d: repeat solve differs from the first" k
            :: !failures);
    incr i
  done;
  {
    latencies_ms = !latencies;
    fastest_ms = fastest;
    fastest_cpu_ms = fastest_cpu;
    solves = !solves;
    elapsed = now () -. started;
    first;
    failures = !failures;
    records = !records;
    distinct;
  }

(* Oracle: every first answer is legal (zones, width range) and meets
   its budget. *)
let check setup w =
  let config = Rip_core.Config.default in
  let bad = ref w.failures in
  Array.iteri
    (fun k report ->
      let item = setup.items.(k) in
      match report with
      | None -> ()
      | Some r ->
          let violations =
            Rip_core.Validate.check ~min_width:config.Rip_core.Config.min_width
              ~max_width:config.Rip_core.Config.max_width process item.net
              ~budget:item.budget r.Rip.solution
          in
          if violations <> [] || r.Rip.delay > item.budget then
            bad := Printf.sprintf "item %d: invalid or over budget" k :: !bad)
    w.first;
  !bad

(* The paper suite, every net at its 20 timing targets; the seed only
   permutes the solve order, so every seed solves the Table 1/2 input set
   and total_width_u is its fingerprint. *)
let permute ~seed items =
  let rng = Inputs.rng ~salt:1 seed in
  let a = Array.copy items in
  for i = Array.length a - 1 downto 1 do
    let j = Rip_numerics.Prng.int_range rng 0 i in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* Set-up is short (0.1-0.2 s) and host noise moves it by half, so it
   is repeated [setup_runs] times and setup_s is the median. *)
let setup_runs = 9

let timed_setups ~seed =
  let nets = Rip_workload.Suite.nets () in
  let runs = List.init setup_runs (fun _ -> setup nets) in
  let last = List.nth runs (setup_runs - 1) in
  (List.map setup_seconds runs, { last with items = permute ~seed last.items })

(* Mean wall time per solve over the first [n] solves of a window (the
   first pass, identical inputs in every window). *)
let first_pass_ms w n =
  let l = List.rev w.latencies_ms in
  Stat.mean (List.filteri (fun i _ -> i < n) l)

let total_width w =
  Array.fold_left
    (fun acc r -> match r with Some r -> acc +. r.Rip.total_width | None -> acc)
    0.0 w.first

(* The timing figures take each item at its fastest solve of the run
   (about ten, one per pass): the host's own contention only ever adds
   time, and it comes in bursts of seconds that a whole 20-second run
   cannot average out, while the item's cost is the same on every pass. *)
let run_e2e r ~seed ~seconds =
  let setups, s = timed_setups ~seed in
  Report.set r ~n:setup_runs "setup_s" (Stat.median setups);
  Report.note r
    ("set-ups (s): " ^ String.concat " " (List.map (Printf.sprintf "%.4f") setups));
  let w = run ~traced:false ~seconds s in
  let n = w.solves and items = Array.length s.items in
  Report.note r
    (Printf.sprintf "%d solves of %d distinct (net, budget) items in %.3f s: %.2f solves/s"
       n items w.elapsed (float_of_int n /. w.elapsed));
  let fastest = Array.to_list w.fastest_ms in
  let rate = float_of_int items /. (Stat.sum fastest /. 1000.0) in
  Report.set r ~n "solves_per_s" rate;
  Report.set r ~n "max_rate_rps" rate;
  Report.set r ~n "latency_p50_ms" (Stat.median fastest);
  let lat = List.rev w.latencies_ms in
  if Stat.supported ~n 0.99 then
    Report.set r ~n "latency_p99_ms" (Stat.blocked_quantile 0.99 lat);
  Report.set r ~n "cpu_ms_per_op" (Stat.mean (Array.to_list w.fastest_cpu_ms));
  Report.set r ~n:1 "peak_rss_mb"
    (Option.value ~default:0.0 (Proc.peak_rss_mb (Unix.getpid ())));
  Report.set r ~n:(Array.length s.items) "total_width_u" (total_width w);
  let wrong = check s w in
  List.iter (Report.wrong r) wrong;
  r.Report.attempted <- n;
  r.Report.failed <- List.length wrong;
  Report.set r ~n "failed_frac" (float_of_int (List.length wrong) /. float_of_int n)

(* Traced run: an untraced window for the overhead baseline, then a
   traced window whose phase spans and DP counts give rip_core, rip_dp
   and rip_refine their numbers. *)
let run_traced r ~seed ~seconds =
  let _, s = timed_setups ~seed in
  let items = Array.length s.items in
  Report.set r ~n:(List.length s.geometry_us) "net.geometry_us" (Stat.mean s.geometry_us);
  Report.set r ~n:(List.length s.tau_min_ms) "core.tau_min_ms" (Stat.mean s.tau_min_ms);
  let plain = run ~traced:false ~seconds:(seconds *. 0.5) s in
  let traced = run ~traced:true ~seconds s in
  Report.note r
    (Printf.sprintf "untraced: %d solves in %.3f s; traced: %d solves in %.3f s"
       plain.solves plain.elapsed traced.solves traced.elapsed);
  if Stat.supported ~n:plain.solves 0.99 then
    Report.set r ~n:plain.solves "latency_p99_ms"
      (Stat.blocked_quantile 0.99 (List.rev plain.latencies_ms));
  Report.set r ~n:items "obs.trace_overhead_frac"
    ((first_pass_ms traced items -. first_pass_ms plain items) /. first_pass_ms plain items);
  let distinct = Array.to_list traced.distinct |> List.filter_map Fun.id in
  List.iter
    (fun (k, v) -> Report.set r ~n:traced.solves k v)
    (Solver_layers.metrics ~distinct ~timed:traced.records);
  (* The solve budget at p50: phases do not nest, so each phase's self
     time is its own duration. *)
  let requests =
    List.map
      (fun rec_ ->
        ( rec_.Solver_layers.wall *. 1000.0,
          List.map
            (fun (p : Solver_layers.phase) ->
              (p.Solver_layers.name, p.Solver_layers.seconds *. 1000.0))
            rec_.Solver_layers.phases
          |> List.fold_left
               (fun acc (name, ms) ->
                 let prev = Option.value ~default:0.0 (List.assoc_opt name acc) in
                 (name, prev +. ms) :: List.remove_assoc name acc)
               [] ))
      traced.records
  in
  let layers = Budget.median_band requests in
  let e2e = Stat.median (List.map fst requests) in
  Report.set r ~n:traced.solves "budget.unattributed_frac"
    (Budget.unattributed_frac ~e2e_p50:e2e ~layers);
  Report.note r
    (Printf.sprintf "layer budget of the median solve (%d solves, e2e p50 %.3f ms):"
       traced.solves e2e);
  List.iter
    (fun (layer, ms) ->
      Report.note r (Printf.sprintf "  %-24s %8.3f ms  %5.1f %%" layer ms (100.0 *. ms /. e2e)))
    layers;
  let wrong = check s plain @ check s traced in
  List.iter (Report.wrong r) wrong;
  let n = plain.solves + traced.solves in
  r.Report.attempted <- n;
  r.Report.failed <- List.length wrong;
  Report.set r ~n "failed_frac" (float_of_int (List.length wrong) /. float_of_int n)
