(** Power-minimal repeater insertion under a delay budget — the DP of
    Lillis, Cheng & Lin (ref. [14] of the paper), specialised to two-pin
    chains.

    Every DP state is a (candidate site, repeater width) pair; a state
    carries the Pareto frontier of [(arrival delay, total width so far)]
    labels over all ways of reaching it.  Transitions append one Eq.-(1)
    stage delay.  Labels exceeding the budget are discarded eagerly
    (delay only grows along the chain), and frontiers are bucketed by
    quantised total width so each distinct width keeps only its fastest
    label — the pseudo-polynomial bound of [14].

    Two interchangeable backends implement that contract ({!backend});
    {!run} on a {!type-request} is the single dispatch point every caller
    — [Rip.solve]'s passes, the engine's baseline jobs, the service's
    rescue DP, the bench suite — routes through. *)

type stats = {
  sites : int;  (** candidate sites including driver and receiver *)
  transitions : int;  (** per-column source-state scans *)
  labels : int;  (** labels surviving pruning, summed over states *)
}

type result = {
  solution : Rip_elmore.Solution.t;
  total_width : float;  (** the optimised power proxy, u *)
  delay : float;  (** Elmore delay of [solution], seconds *)
  stats : stats;
}

type probe_event =
  | Column of {
      site : int;  (** candidate site index, 1-based along the chain *)
      width_index : int;  (** index into the site's width array *)
      collected : int;  (** width-bucketed labels before the Pareto prune *)
      kept : int;  (** frontier size after pruning (and any cap) *)
    }
      (** One DP state finished: its frontier was frozen.  Labels pruned
          at this state = [collected - kept].  Both backends emit the
          event; under [Fast] the counts reflect its additional
          forward-infeasibility pruning, which is exactly what makes the
          win visible in METRICS. *)

(** {1 Backends} *)

type backend =
  | Reference
      (** the boxed-label Hashtbl DP of [14]: the exactness oracle the
          tests and the bench's fingerprint gate hold [Fast] to *)
  | Fast
      (** {!Fast_dp}: Li/Shi-style candidate pruning over flat arenas;
          bit-identical solutions, order-of-magnitude faster on real
          instances — the production backend *)

val backend_name : backend -> string
(** ["reference"], ["fast"] — for reports and bench output. *)

(** {1 Requests and the dispatch point} *)

type request = {
  geometry : Rip_net.Geometry.t;
  repeater : Rip_tech.Repeater_model.t;
  library : Repeater_library.t;
  candidates : float list;
  budget : float;
  backend : backend;
  frontier_cap : int option;
      (** bounds every per-state frontier to that many labels (evenly
          sampled along the width axis, keeping the cheapest and the
          fastest).  Without it the DP is exact but pseudo-polynomial;
          with it, an anytime approximation that still never returns a
          budget-violating solution.  Must be at least 2.  When a cap
          actually binds on a state where [Fast] pruned labels, the two
          backends may sample different survivors and cease to be
          bit-identical — callers needing cross-backend identity under
          all inputs pass [None] (see DESIGN.md). *)
  arena : Fast_dp.Arena.t option;
      (** reusable label store for the [Fast] backend (ignored by
          [Reference]); omitted, the solve allocates a private one *)
  hooks : probe_event Rip_numerics.Hooks.t;
      (** [cancel] is polled once per candidate column; [probe] receives
          one {!probe_event} per DP state; [phase] is unused at this
          layer.  All hooks are bit-identity-preserving observers. *)
}

val request :
  ?backend:backend ->
  ?frontier_cap:int ->
  ?arena:Fast_dp.Arena.t ->
  ?hooks:probe_event Rip_numerics.Hooks.t ->
  Rip_net.Geometry.t -> Rip_tech.Repeater_model.t ->
  library:Repeater_library.t -> candidates:float list -> budget:float ->
  request
(** Constructor with the defaults of a plain solve: [Fast] backend, no
    cap, no arena, {!Rip_numerics.Hooks.default}. *)

val run : request -> result option
(** The solve.  [None] when no repeater assignment over the given sites
    and library meets the budget.  The returned solution's delay is
    recomputed through {!Rip_elmore.Delay.total} and always satisfies
    [delay <= budget].
    @raise Invalid_argument when [frontier_cap < 2]. *)
