(** The line-oriented wire protocol of [rip_serviced].

    Frames are newline-terminated ASCII lines; multi-line frames end with
    a line that is exactly [END].  Floats are rendered with [%.17g], so a
    parse/print round trip is exact.  A trailing [\r] on any line is
    stripped, which keeps interactive [socat]/[telnet] sessions usable.

    Requests:
    {v
    PING
    METRICS
    HEALTH
    SHUTDOWN
    SOLVE <budget-seconds> [DEADLINE <milliseconds>] [TRACE <trace-id> <parent-span-id> <flags>]
    <net body in the Rip_net.Net_io file format>
    END
    v}

    The optional [DEADLINE] header bounds how long the client is willing
    to wait for this solve, measured from admission on the server's
    monotonic clock.  Past the deadline the server answers [TIMEOUT]
    (nothing started yet) or degrades to its analytic fallback tier and
    answers [DEGRADED] (see below); it never keeps solving.

    The optional [TRACE] header propagates a distributed-trace context:
    a 32-hex-digit trace id, the 16-hex-digit span id of the caller's
    span (all zeros for a root), and a decimal flags byte (bit 0 =
    sampled).  The two headers may appear in either order.  TRACE is
    best-effort observability: a malformed, truncated, duplicated or
    otherwise invalid TRACE header degrades the request to untraced and
    the solve proceeds normally — a bad DEADLINE is still a protocol
    error, because deadlines affect correctness.

    The net body must not contain a line equal to [END] (bodies produced
    by {!Rip_net.Net_io.to_string} never do).

    Responses:
    {v
    PONG
    BYE
    BUSY
    TIMEOUT
    TOOBIG
    ERROR <kind> <one-line message>
    RESULT <fresh|cached>
    repeater <position-um> <width-u>     (zero or more)
    width <total-width-u>
    delay <seconds>
    power <watts>
    END
    DEGRADED <deadline|overload|worker-lost>
    <same solution body as RESULT>
    END
    METRICS
    <Prometheus text exposition lines>
    END
    HEALTHY <shard-id> <in-flight> <queue-depth> <high-water>
    v}

    [HEALTH] is the cheap liveness-and-load probe a router polls between
    METRICS scrapes: one line out, one line back, no END framing on
    either side.  The shard id is the server's configured identity (one
    token of [[A-Za-z0-9._-]]); the three integers are the current
    admission gauges.

    The [METRICS] body is the server registry's Prometheus text
    exposition ({!Rip_obs.Metrics.render}) — every counter, gauge and
    histogram a shard keeps ({!Metrics} lists them) — and the only way
    to read them: there is no second counter frame.  A router answers
    with its own [rip_router_*] series followed by the cluster view, the
    shards' series summed under their own names.  A Prometheus line
    never equals [END], so the framing is unambiguous.

    [TIMEOUT] answers a SOLVE whose deadline had already expired at
    admission.  [TOOBIG] answers a request frame exceeding the server's
    frame-size bound; the connection is closed after it (framing is
    lost).  [DEGRADED] carries a best-effort solution from the analytic
    fallback tier with the reason the full solve was skipped or
    abandoned; its delay may exceed the budget, but the solution is
    always legal (forbidden zones, width range).

    The body of a [RESULT] frame is deterministic — it carries no
    timestamps or runtimes — so a cache hit replays the cached solve
    byte for byte, except for the [fresh]/[cached] marker on the header
    line.  Per-request timing is aggregated server-side and surfaced
    through [METRICS]. *)

(** {1 Frame types} *)

type error_kind =
  | Protocol_error  (** the request could not be parsed *)
  | Infeasible_budget  (** {!Rip_core.Rip.Infeasible_budget} *)
  | Invalid_net  (** {!Rip_core.Rip.Invalid_net} *)
  | Internal_error  (** {!Rip_core.Rip.Internal} or a server bug *)

type solution = {
  repeaters : (float * float) list;  (** (position um, width u), ordered *)
  total_width : float;  (** u *)
  delay : float;  (** seconds *)
  power_watts : float;
}

type served = Fresh | Cached

type degrade_reason =
  | Deadline_exceeded
      (** the deadline fired mid-solve; the DP was cancelled *)
  | Overload
      (** the admission queue crossed its high-water mark; the full
          solve was never attempted *)
  | Worker_lost  (** the worker running the solve died mid-solve *)

type health = {
  health_shard_id : string;
  health_in_flight : int;  (** admitted SOLVEs right now *)
  health_queue_depth : int;  (** the server's admission bound *)
  health_high_water : int;  (** its static load-shed mark *)
}

type request =
  | Ping
  | Metrics
  | Health
  | Shutdown
  | Solve of {
      budget : float;
      deadline_ms : float option;  (** wall-time budget for the request *)
      trace : Rip_obs.Trace.context option;
          (** distributed-trace context from the TRACE header, when one
              was present and valid *)
      net : Rip_net.Net.t;
    }

type response =
  | Pong
  | Bye
  | Busy
  | Timeout
  | Toobig
  | Error_frame of { kind : error_kind; message : string }
  | Result of { served : served; solution : solution }
  | Degraded of { reason : degrade_reason; solution : solution }
  | Metrics_frame of string
      (** the Prometheus text body, newline-terminated lines *)
  | Health_frame of health

(** {1 Printing} *)

val valid_shard_id : string -> bool
(** One non-empty token over [[A-Za-z0-9._-]] — what fits on the
    single-line [HEALTHY] frame. *)

val print_request : request -> string
(** The frame's wire form, newline-terminated. *)

val print_response : response -> string
(** The frame's wire form, newline-terminated.  The message of an
    [Error_frame] is flattened to one line. *)

val solution_body : solution -> string
(** The deterministic body of a [RESULT] frame (the lines between the
    header and [END]) — what "byte-identical cached replay" promises. *)

val parse_solution_body : string list -> (solution, string) result
(** Inverse of {!solution_body} on its lines (terminators stripped) —
    the journal replay path re-parses persisted bodies through this, so
    a replayed solution is exactly what a RESULT parser would accept. *)

(** {1 Parsing} *)

type reader = unit -> string option
(** Yields the next line (without its terminator) or [None] at end of
    stream. *)

val reader_of_channel : in_channel -> reader
(** Lines via [input_line], stripping one trailing [\r]. *)

val reader_of_lines : string list -> reader
(** An in-memory reader, for tests. *)

val input_request : reader -> (request option, string) result
(** Read one request frame; [Ok None] on a clean end of stream before any
    line of a frame, [Error] on garbage or a truncated frame. *)

val input_response : reader -> (response option, string) result
(** Read one response frame, same conventions. *)

(** {1 Equality (tests)} *)

val request_equal : request -> request -> bool
val response_equal : response -> response -> bool

val error_kind_to_string : error_kind -> string
val degrade_reason_to_string : degrade_reason -> string
val one_line : string -> string
(** Newlines collapsed to ["; "] — error messages must fit one frame
    line. *)
