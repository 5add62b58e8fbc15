(** Cooperative cancellation for long-running solves.

    A token is a single atomic flag shared between the thread that may
    want a solve stopped (a deadline watchdog, a shutdown path) and the
    worker running it.  The worker side is wired in as the plain
    [cancel : unit -> unit] field of the {!Rip_numerics.Hooks.t} that
    {!Rip_dp.Power_dp.run}, {!Rip_refine.Refine.run} and
    {!Rip_core.Rip.solve} take — those libraries never depend on this
    module; {!hook} adapts a token to the hook shape.

    Polling granularity is one DP candidate column / one REFINE
    iteration, so a fired token stops a pseudo-polynomial label explosion
    within one column's work, not after it. *)

exception Cancelled
(** Raised by a {!hook} once its token has been {!cancel}ed.  Escapes
    through the solver's polling points; never raised spontaneously. *)

type t
(** A cancellation token.  Thread-safe: any thread may {!cancel} while
    workers poll. *)

val create : unit -> t
(** A fresh, unfired token. *)

val cancel : t -> unit
(** Fire the token.  Idempotent; takes effect at the workers' next poll. *)

val cancelled : t -> bool
(** Whether the token has fired. *)

val hook : t -> unit -> unit
(** [hook t] is the poll closure to pass as [?cancel]: it raises
    {!Cancelled} when [t] has fired and returns unit otherwise. *)

val protect : (unit -> 'a) -> 'a option
(** [protect f] runs [f], mapping an escaped {!Cancelled} to [None]. *)
