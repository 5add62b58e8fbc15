module Geometry = Rip_net.Geometry
module Net = Rip_net.Net
module Solution = Rip_elmore.Solution
module Delay = Rip_elmore.Delay
module Power_dp = Rip_dp.Power_dp
module Fast_dp = Rip_dp.Fast_dp
module Min_delay = Rip_dp.Min_delay
module Candidates = Rip_dp.Candidates
module Repeater_library = Rip_dp.Repeater_library
module Refine = Rip_refine.Refine
module Process = Rip_tech.Process
module Power_model = Rip_tech.Power_model

type phase_trace = {
  coarse : Power_dp.result option;
  used_fallback_library : bool;
  refined : Refine.outcome option;
  refined_library : Repeater_library.t option;
  refined_candidates : float list;
  final : Power_dp.result option;
  rescue : Power_dp.result option;
}

type report = {
  solution : Solution.t;
  total_width : float;
  delay : float;
  power_watts : float;
  runtime_seconds : float;
  trace : phase_trace;
}

(* The anchor takes the better of the analytical continuous minimum and a
   fine-grid DP minimum: the analytic descent can miss globally (greedy),
   the DP is grid-limited; their min is a tight yet reachable target. *)
let tau_min (process : Process.t) geometry =
  let net = Geometry.net geometry in
  let candidates = Candidates.uniform net ~pitch:Config.tau_min_pitch in
  let gridded =
    Min_delay.tau_min geometry process.Process.repeater
      ~library:Config.tau_min_library ~candidates
  in
  let analytic =
    Rip_refine.Min_delay_analytic.tau_min geometry process.Process.repeater
  in
  Float.min gridded analytic

(* Line 3: library B from the refined continuous widths, location set S
   around the refined positions. *)
let refined_space (config : Config.t) net (outcome : Refine.outcome) =
  let widths = Solution.widths outcome.Refine.solution in
  let library =
    match widths with
    | [] -> None
    | _ :: _ ->
      Some
        (Repeater_library.round_to_grid
           ~granularity:config.Config.refined_granularity
           ~min_width:config.Config.min_width
           ~max_width:config.Config.max_width widths)
  in
  let candidates =
    Candidates.around net
      ~centers:(Solution.positions outcome.Refine.solution)
      ~radius:config.Config.refined_radius
      ~pitch:config.Config.refined_pitch
  in
  (library, candidates)

let make_report process geometry ~runtime_seconds ~trace
    (dp : Power_dp.result) =
  let repeater = process.Process.repeater in
  {
    solution = dp.Power_dp.solution;
    total_width = dp.Power_dp.total_width;
    delay = Delay.total repeater geometry dp.Power_dp.solution;
    power_watts =
      Power_model.repeater_power process.Process.power ~repeater
        ~total_width:dp.Power_dp.total_width;
    runtime_seconds;
    trace;
  }

type error =
  | Infeasible_budget of { budget : float; tau_min_hint : float option }
  | Invalid_net of Validate.violation list
  | Internal of string

let pp_error ppf = function
  | Infeasible_budget { budget; tau_min_hint } -> (
      Fmt.pf ppf "infeasible: no legal insertion meets %.4g ps"
        (budget *. 1e12);
      match tau_min_hint with
      | Some tau ->
          Fmt.pf ppf " (the net's minimum achievable delay is %.4g ps)"
            (tau *. 1e12)
      | None -> ())
  | Invalid_net violations ->
      Fmt.pf ppf "invalid problem: %a"
        (Fmt.list ~sep:(Fmt.any "; ") Validate.pp_violation)
        violations
  | Internal message -> Fmt.pf ppf "internal error: %s" message

let error_to_string error = Fmt.str "%a" pp_error error

type problem = {
  process : Process.t;
  net : Net.t;
  geometry : Geometry.t option;
  budget : float;
}

let problem ?geometry process net ~budget = { process; net; geometry; budget }

type probe_event =
  | Dp of Power_dp.probe_event
  | Refine of Refine.probe_event

let solve_prepared ?(config = Config.default) ?(hooks = Hooks.default) process
    geometry ~budget =
  let started = Rip_numerics.Cpu_clock.thread_seconds () in
  (* Sub-solver hook bundles: same cancel token, events re-tagged with the
     pipeline-level constructors.  When [hooks.probe] is [None] the
     contramapped probes are [None] too, so the sub-solvers stay on their
     allocation-free paths. *)
  let dp_hooks = Hooks.contramap (fun e -> Dp e) hooks in
  let refine_hooks = Hooks.contramap (fun e -> Refine e) hooks in
  let in_phase name f = Hooks.in_phase hooks name f in
  let net = Geometry.net geometry in
  let repeater = process.Process.repeater in
  let backend = config.Config.dp.Config.backend in
  let frontier_cap = config.Config.dp.Config.frontier_cap in
  (* One label arena shared by every DP pass of this solve (coarse,
     final-per-round, rescue): the final DPs reuse the capacity the coarse
     pass grew.  Arenas are single-owner; a solve is single-threaded, so
     this is safe. *)
  let arena = Fast_dp.Arena.create () in
  let run_dp geometry repeater ~library ~candidates ~budget =
    Power_dp.run
      (Power_dp.request ~backend ?frontier_cap ~arena ~hooks:dp_hooks geometry
         repeater ~library ~candidates ~budget)
  in
  let coarse_candidates =
    Candidates.uniform net ~pitch:config.Config.coarse_pitch
  in
  (* Line 1, with a fallback library for budgets the coarse grid misses.
     For budgets below what any 200 um-pitch DP can reach, seed REFINE
     with the min-delay insertion instead: the analytical movement plus
     the fine-pitch final DP can still land under the budget. *)
  let coarse, used_fallback_library =
    in_phase "coarse_dp" @@ fun () ->
    match
      run_dp geometry repeater ~library:config.Config.coarse_library
        ~candidates:coarse_candidates ~budget
    with
    | Some r -> (Some r, false)
    | None -> (
        match
          run_dp geometry repeater ~library:config.Config.fallback_library
            ~candidates:coarse_candidates ~budget
        with
        | Some r -> (Some r, true)
        | None ->
            let fastest =
              Min_delay.solve geometry repeater
                ~library:config.Config.fallback_library
                ~candidates:coarse_candidates
            in
            ( Some
                {
                  Power_dp.solution = fastest.Min_delay.solution;
                  total_width =
                    Solution.total_width fastest.Min_delay.solution;
                  delay = fastest.Min_delay.delay;
                  stats = { Power_dp.sites = 0; transitions = 0; labels = 0 };
                },
              true ))
  in
  match coarse with
  | None ->
      Error
        (Infeasible_budget
           { budget; tau_min_hint = Some (tau_min process geometry) })
  | Some coarse_result ->
      (* Lines 2-4, optionally iterated (config.refine_passes): each round
         seeds REFINE with the previous round's discrete solution. *)
      let run_round seed =
        match
          in_phase "refine" (fun () ->
              Rip_refine.Refine.run ~config:config.Config.refine
                ~hooks:refine_hooks geometry repeater ~budget ~initial:seed)
        with
        | None -> (None, None, [], None)
        | Some outcome ->
            let library, candidates = refined_space config net outcome in
            let final =
              match library with
              | None ->
                  (* REFINE emptied the net: the bare wire meets timing. *)
                  Some
                    {
                      Power_dp.solution = Solution.empty;
                      total_width = 0.0;
                      delay = Delay.total repeater geometry Solution.empty;
                      stats =
                        { Power_dp.sites = 2; transitions = 0; labels = 0 };
                    }
              | Some library ->
                  in_phase "final_dp" (fun () ->
                      run_dp geometry repeater ~library ~candidates ~budget)
            in
            (Some outcome, library, candidates, final)
      in
      let refined, refined_library, refined_candidates, first_final =
        run_round coarse_result.Power_dp.solution
      in
      let final =
        let passes = Stdlib.max 1 config.Config.refine_passes in
        let rec iterate best k =
          if k >= passes then best
          else
            match best with
            | None -> best
            | Some (previous : Power_dp.result) -> (
                match run_round previous.Power_dp.solution with
                | _, _, _, Some next
                  when next.Power_dp.total_width
                       < previous.Power_dp.total_width ->
                    iterate (Some next) (k + 1)
                | _, _, _, (Some _ | None) -> best)
        in
        iterate first_final 1
      in
      (* Last resort for budgets every grid missed: fine-pitch DP around
         the analytical min-delay locations with the full library. *)
      let tolerance = 1e-6 *. Float.abs budget in
      let coarse_feasible =
        coarse_result.Power_dp.delay <= budget +. tolerance
      in
      let rescue =
        let need =
          (not coarse_feasible)
          && (match final with
             | Some f -> f.Power_dp.delay > budget +. tolerance
             | None -> true)
        in
        if not need then None
        else
          in_phase "rescue_dp" @@ fun () ->
          let fastest =
            Rip_refine.Min_delay_analytic.solve
              ~min_width:config.Config.min_width
              ~max_width:config.Config.max_width geometry repeater
          in
          let candidates =
            Candidates.around net
              ~centers:
                (Solution.positions
                   fastest.Rip_refine.Min_delay_analytic.solution)
              ~radius:config.Config.refined_radius
              ~pitch:config.Config.refined_pitch
          in
          (* Same trick as line 3: a tiny library synthesised from the
             analytical widths.  The full reference library here would
             reintroduce the pseudo-polynomial blow-up the hybrid scheme
             exists to avoid. *)
          let library =
            match
              Solution.widths fastest.Rip_refine.Min_delay_analytic.solution
            with
            | [] -> config.Config.fallback_library
            | widths ->
                Repeater_library.round_to_grid
                  ~granularity:config.Config.refined_granularity
                  ~min_width:config.Config.min_width
                  ~max_width:config.Config.max_width widths
          in
          run_dp geometry repeater ~library ~candidates ~budget
      in
      let trace =
        { coarse = Some coarse_result; used_fallback_library; refined;
          refined_library; refined_candidates; final; rescue }
      in
      (* Keep the best budget-meeting result among line 4, line 1 and the
         rescue pass.  A min-delay seed that itself misses the budget is
         never returned. *)
      let candidates_for_best =
        List.filter_map
          (fun r -> r)
          [
            final;
            (if coarse_feasible then Some coarse_result else None);
            rescue;
          ]
      in
      let feasible =
        List.filter
          (fun (r : Power_dp.result) ->
            r.Power_dp.delay <= budget +. tolerance)
          candidates_for_best
      in
      let best =
        List.fold_left
          (fun acc (r : Power_dp.result) ->
            match acc with
            | None -> Some r
            | Some b ->
                if r.Power_dp.total_width < b.Power_dp.total_width then Some r
                else acc)
          None feasible
      in
      let runtime_seconds =
        Rip_numerics.Cpu_clock.thread_seconds () -. started
      in
      (match best with
      | None ->
          Error
            (Infeasible_budget
               { budget; tau_min_hint = Some (tau_min process geometry) })
      | Some best ->
          Ok (make_report process geometry ~runtime_seconds ~trace best))

let solve ?config ?hooks { process; net; geometry; budget } =
  match Validate.check_problem ?geometry net ~budget with
  | _ :: _ as violations -> Error (Invalid_net violations)
  | [] ->
      let geometry =
        match geometry with Some g -> g | None -> Geometry.of_net net
      in
      solve_prepared ?config ?hooks process geometry ~budget
