(** Algorithm RIP (Figure 6 of the paper): the hybrid repeater insertion
    scheme.

    {ol
    {- run the power DP with a coarse library and coarse uniform candidate
       locations;}
    {- improve the seed with the analytical solver REFINE;}
    {- synthesise a concise refined library (REFINE widths snapped to the
       discrete grid) and a small refined candidate set (REFINE locations
       plus/minus a few fine-pitch slots);}
    {- rerun the power DP on the refined space.}}

    When the coarse DP finds no solution (the coarse library may simply
    lack the right sizes for very tight budgets), line 1 is retried with
    the configured fallback library before giving up; when the final DP is
    infeasible despite the refined space (rare rounding corner), the best
    earlier feasible solution is returned.  Every returned solution is
    legal and meets the budget. *)

type phase_trace = {
  coarse : Rip_dp.Power_dp.result option;
      (** line 1 result ([None] only if even the fallback failed) *)
  used_fallback_library : bool;
  refined : Rip_refine.Refine.outcome option;  (** line 2 result *)
  refined_library : Rip_dp.Repeater_library.t option;  (** line 3 library B *)
  refined_candidates : float list;  (** line 3 location set S *)
  final : Rip_dp.Power_dp.result option;  (** line 4 result *)
  rescue : Rip_dp.Power_dp.result option;
      (** last-resort pass for budgets so tight that every DP grid missed:
          a DP over fine-pitch candidates around the analytical min-delay
          locations ({!Rip_refine.Min_delay_analytic}) with the full
          reference library.  [None] unless it was needed. *)
}

type report = {
  solution : Rip_elmore.Solution.t;
  total_width : float;  (** power proxy p = sum w_i, u *)
  delay : float;  (** seconds, <= budget *)
  power_watts : float;  (** via the process power model, Eq. (3) *)
  runtime_seconds : float;
      (** thread-CPU time of the whole pipeline
          ({!Rip_numerics.Cpu_clock}), valid under parallel sweeps *)
  trace : phase_trace;
}

(** {1 Typed failures}

    Solving can only fail in three ways, each carrying what a caller
    needs to react programmatically — no string matching. *)

type error =
  | Infeasible_budget of { budget : float; tau_min_hint : float option }
      (** no legal insertion meets [budget]; [tau_min_hint] is the net's
          minimum achievable delay when the solver computed one (the
          smallest budget worth retrying with) *)
  | Invalid_net of Validate.violation list
      (** the problem statement is malformed (see
          {!Validate.check_problem}); never empty *)
  | Internal of string
      (** an invariant of the pipeline broke — a bug, not a property of
          the input *)

val pp_error : error Fmt.t

val error_to_string : error -> string
(** [Fmt.str "%a" pp_error]; always non-empty. *)

(** {1 Problem statement and the single solve entry point} *)

type problem = {
  process : Rip_tech.Process.t;
  net : Rip_net.Net.t;
  geometry : Rip_net.Geometry.t option;
      (** a prebuilt prefix-sum geometry of [net], to be reused across
          many budgets of the same net; [None] builds one internally *)
  budget : float;  (** delay budget, seconds *)
}

val problem :
  ?geometry:Rip_net.Geometry.t -> Rip_tech.Process.t -> Rip_net.Net.t ->
  budget:float -> problem
(** Convenience constructor for {!type-problem}. *)

type probe_event =
  | Dp of Rip_dp.Power_dp.probe_event
      (** from every DP pass: coarse, final and rescue — whichever
          backend ran it *)
  | Refine of Rip_refine.Refine.probe_event
      (** from REFINE rounds (and, via [Refine.Newton], the KKT Newton
          iterations when that backend is configured) *)
(** Everything the pipeline can report through [hooks.probe]. *)

val solve :
  ?config:Config.t -> ?hooks:probe_event Hooks.t -> problem ->
  (report, error) result
(** Solve Problem LPRI.  The only entry point: batch callers build one
    {!Rip_net.Geometry.t} per net and stamp out problems per budget.

    All observation and cancellation goes through one {!Hooks.t} bundle:

    - [hooks.cancel] is a cooperative-cancellation poll threaded through
      every DP pass (candidate-column granularity) and REFINE run
      (iteration granularity).  Returning unit leaves the solve
      bit-identical to one without the hook; raising aborts the pipeline
      with that exception — {!Rip_engine.Cancel.hook} raises [Cancelled],
      which the solve service maps to its deadline/degradation ladder.
    - [hooks.probe] receives every sub-solver event, tagged {!Dp} or
      {!Refine}.  Results are bit-identical with or without it, and when
      absent the sub-solvers allocate nothing for events.
    - [hooks.phase] is a span hook: entering pipeline phase [name]
      (["coarse_dp"], ["refine"], ["final_dp"], ["rescue_dp"]) calls
      [phase name] and the returned closure when the phase ends (also on
      exceptions) — the shape of {!Rip_obs.Trace.begin_span}, without a
      dependency on it.

    The DP backend and frontier cap come from [config.dp]
    ({!Config.dp_options}); every DP pass of one solve shares a single
    label arena, so batch callers amortise allocation by reusing warmed
    capacity across the coarse, final and rescue passes. *)

val tau_min : Rip_tech.Process.t -> Rip_net.Geometry.t -> float
(** The timing-target anchor, "the minimum delay of the net": the better
    of the analytical continuous minimum
    ({!Rip_refine.Min_delay_analytic}) and a fine-grid DP minimum
    ({!Config.tau_min_library} at {!Config.tau_min_pitch}). *)
