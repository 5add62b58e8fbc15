(* Per-solve layer records for rip_core, rip_dp and rip_refine, taken
   through the solver's own public hooks: [hooks.phase] brackets each
   pipeline phase with a span the benchmark times, and [hooks.probe]
   counts DP labels per frozen column.  Both hooks leave the solution
   bit-identical, so a traced solve answers exactly as an untraced one. *)

module Rip = Rip_core.Rip
module Power_dp = Rip_dp.Power_dp

let now = Rip_numerics.Cpu_clock.monotonic_seconds

let frontier_cap =
  Rip_core.Config.default.Rip_core.Config.dp.Rip_core.Config.frontier_cap

(* One pipeline phase: its wall time and, for DP phases, the label
   counts of every DP pass it ran. *)
type phase = {
  name : string;
  seconds : float;
  columns : int;
  collected : int;
  kept : int;
  cap_bound : int;  (* columns whose collected labels exceeded the cap *)
  sites : int;  (* largest candidate-site index seen *)
  library : int;  (* largest width index seen + 1 *)
}

type record = {
  wall : float;  (* the whole Rip.solve call *)
  phases : phase list;  (* in execution order *)
  rescue : bool;
  fallback : bool;
  refine_iterations : int;
  refine_moves : int;
  refine_converged : bool option;  (* None: REFINE never ran *)
}

type acc = {
  mutable a_columns : int;
  mutable a_collected : int;
  mutable a_kept : int;
  mutable a_cap_bound : int;
  mutable a_sites : int;
  mutable a_library : int;
}

let fresh_acc () =
  { a_columns = 0; a_collected = 0; a_kept = 0; a_cap_bound = 0;
    a_sites = 0; a_library = 0 }

(* Run [Rip.solve] with phase spans and DP label counting.  Phases do
   not nest, so one accumulator for the phase in progress suffices. *)
let solve problem =
  let phases = ref [] in
  let acc = ref (fresh_acc ()) in
  let phase name =
    acc := fresh_acc ();
    let started = now () in
    fun () ->
      let a = !acc in
      phases :=
        { name; seconds = now () -. started; columns = a.a_columns;
          collected = a.a_collected; kept = a.a_kept;
          cap_bound = a.a_cap_bound; sites = a.a_sites;
          library = a.a_library }
        :: !phases
  in
  let probe = function
    | Rip.Dp (Power_dp.Column { site; width_index; collected; kept }) ->
        let a = !acc in
        a.a_columns <- a.a_columns + 1;
        a.a_collected <- a.a_collected + collected;
        a.a_kept <- a.a_kept + kept;
        (match frontier_cap with
        | Some cap when collected > cap -> a.a_cap_bound <- a.a_cap_bound + 1
        | _ -> ());
        if site > a.a_sites then a.a_sites <- site;
        if width_index + 1 > a.a_library then a.a_library <- width_index + 1
    | Rip.Refine _ -> ()
  in
  let hooks = Rip_core.Hooks.make ~probe ~phase () in
  let started = now () in
  let result = Rip.solve ~hooks problem in
  let wall = now () -. started in
  let record =
    match result with
    | Ok report ->
        let t = report.Rip.trace in
        let iterations, moves, converged =
          match t.Rip.refined with
          | Some o ->
              ( o.Rip_refine.Refine.iterations, o.Rip_refine.Refine.moves,
                Some o.Rip_refine.Refine.converged )
          | None -> (0, 0, None)
        in
        { wall; phases = List.rev !phases; rescue = Option.is_some t.Rip.rescue;
          fallback = t.Rip.used_fallback_library;
          refine_iterations = iterations; refine_moves = moves;
          refine_converged = converged }
    | Error _ ->
        { wall; phases = List.rev !phases; rescue = false; fallback = false;
          refine_iterations = 0; refine_moves = 0; refine_converged = None }
  in
  (result, record)

let phase_seconds name r =
  List.fold_left
    (fun acc p -> if String.equal p.name name then acc +. p.seconds else acc)
    0.0 r.phases

let phase_total r = List.fold_left (fun acc p -> acc +. p.seconds) 0.0 r.phases

let is_dp p =
  match p.name with
  | "coarse_dp" | "final_dp" | "rescue_dp" -> true
  | _ -> false

(* Size classes for the DP cost-per-label check against the O(bn^2)
   bound: n = candidate sites, b = library size.  A constant ns/label
   across classes means the label count carries the whole cost. *)
let nb_bins =
  [ ("nb_lt256", 256); ("nb_lt512", 512); ("nb_lt1024", 1024); ("nb_ge1024", max_int) ]

let nb_bin p =
  let nb = p.sites * p.library in
  fst (List.find (fun (_, hi) -> nb < hi) nb_bins)

(* Layer metrics over a set of records.  [distinct] holds one record per
   distinct input (exact, repeatable counts); [timed] every record of
   the window (time means per solve).  A metric without a defined value
   (an empty denominator, a p99 with fewer than ten samples beyond it)
   is left out. *)
let metrics ~distinct ~timed =
  let fsum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l in
  let isum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  let ratio a b = if b = 0 then None else Some (float_of_int a /. float_of_int b) in
  let n_timed = List.length timed in
  let per_solve f =
    if n_timed = 0 then None else Some (fsum f timed /. float_of_int n_timed *. 1000.0)
  in
  let walls = List.map (fun r -> r.wall *. 1000.0) timed in
  let count f = Some (float_of_int (isum f distinct)) in
  let dp_phases l = List.concat_map (fun r -> List.filter is_dp r.phases) l in
  let d_phases = dp_phases distinct and t_phases = dp_phases timed in
  let collected = isum (fun p -> p.collected) d_phases in
  let ns_per_label phases =
    let c = isum (fun p -> p.collected) phases in
    if c = 0 then None else Some (fsum (fun p -> p.seconds) phases *. 1e9 /. float_of_int c)
  in
  let refined = List.filter (fun r -> Option.is_some r.refine_converged) distinct in
  let total_wall = fsum (fun r -> r.wall) timed in
  let flag f r = if f r then 1 else 0 in
  List.filter_map
    (fun (name, v) -> Option.map (fun v -> (name, v)) v)
    ([
       ("core.solve_ms.p50", if n_timed = 0 then None else Some (Stat.median walls));
       ( "core.solve_ms.p99",
         if Stat.supported ~n:n_timed 0.99 then Some (Stat.quantile 0.99 walls) else None );
       ("core.rescue_count", count (flag (fun r -> r.rescue)));
       ("core.fallback_library_count", count (flag (fun r -> r.fallback)));
       ( "core.residual_frac",
         if total_wall = 0.0 then None
         else Some ((total_wall -. fsum phase_total timed) /. total_wall) );
       ("dp.coarse_ms", per_solve (phase_seconds "coarse_dp"));
       ("dp.final_ms", per_solve (phase_seconds "final_dp"));
       ("dp.rescue_ms", per_solve (phase_seconds "rescue_dp"));
       ("dp.columns", Some (float_of_int (isum (fun p -> p.columns) d_phases)));
       ("dp.labels_collected", Some (float_of_int collected));
       ("dp.labels_kept", Some (float_of_int (isum (fun p -> p.kept) d_phases)));
       ("dp.prune_ratio", ratio (isum (fun p -> p.kept) d_phases) collected);
       ("dp.cap_bound_columns", Some (float_of_int (isum (fun p -> p.cap_bound) d_phases)));
       ("dp.ns_per_label", ns_per_label t_phases);
     ]
    @ List.map
        (fun (bin, _) ->
          ( "dp.ns_per_label." ^ bin,
            ns_per_label (List.filter (fun p -> String.equal (nb_bin p) bin) t_phases) ))
        nb_bins
    @ [
        ("refine.ms", per_solve (phase_seconds "refine"));
        ("refine.iterations", count (fun r -> r.refine_iterations));
        ("refine.moves", count (fun r -> r.refine_moves));
        ( "refine.converged_frac",
          ratio
            (List.length (List.filter (fun r -> r.refine_converged = Some true) refined))
            (List.length refined) );
      ])
