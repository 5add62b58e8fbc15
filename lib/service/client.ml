type t = {
  fd : Unix.file_descr;
  reader : Protocol.reader;
  mutable closed : bool;
}

(* A per-attempt timeout is enforced by the kernel through the socket's
   receive/send timeouts: a stalled server surfaces as [EAGAIN] from
   [read]/[write], which [request] reports as a transport [Error] — the
   retry layer's signal to reconnect. *)
let set_timeout fd seconds =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO seconds;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO seconds

let of_fd ?timeout fd =
  Option.iter (set_timeout fd) timeout;
  { fd; reader = Wire.reader (Wire.create fd); closed = false }

(* The timeouts are armed before connecting: a peer that has stopped
   accepting (a hung process with a full listen backlog) then fails the
   dial after [timeout] instead of blocking it forever. *)
let connect_unix ?timeout path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Option.iter (set_timeout fd) timeout;
     Unix.connect fd (Unix.ADDR_UNIX path)
   with exn ->
     Unix.close fd;
     raise exn);
  of_fd fd

let connect_tcp ?timeout ~host ~port () =
  let address =
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } ->
          failwith (Printf.sprintf "cannot resolve host %S" host)
      | { Unix.h_addr_list; _ } -> h_addr_list.(0)
      | exception Not_found ->
          failwith (Printf.sprintf "cannot resolve host %S" host))
  in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (address, port))
   with exn ->
     Unix.close fd;
     raise exn);
  of_fd ?timeout fd

let transport f =
  match f () with
  | result -> result
  | exception Unix.Unix_error (code, _, _) -> Error (Unix.error_message code)
  | exception (Sys_error message | Failure message) -> Error message
  | exception End_of_file -> Error "connection closed by server"
  | exception Wire.Frame_too_big -> Error "oversized response frame"

let send t frame =
  if t.closed then Error "client is closed"
  else transport (fun () -> Ok (Wire.send t.fd (Protocol.print_request frame)))

let receive t =
  transport (fun () ->
      match Protocol.input_response t.reader with
      | Ok (Some response) -> Ok response
      | Ok None -> Error "connection closed by server"
      | Error e -> Error e)

let request t frame = Result.bind (send t frame) (fun () -> receive t)

(* EINVAL: a descriptor at or past FD_SETSIZE, which select cannot watch. *)
let wait ~timeout conns =
  let now = Rip_numerics.Cpu_clock.monotonic_seconds in
  let deadline = now () +. timeout in
  let rec go () =
    let fds = List.map (fun c -> c.fd) conns in
    match Unix.select fds [] [] (Float.max 0.0 (deadline -. now ())) with
    | readable, _, _ -> List.filter (fun c -> List.mem c.fd readable) conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.EINVAL, _, _) -> conns
  in
  go ()

(* domain-escape waiver: a [t] is owned by exactly one thread at a time
   — loadgen workers each dial their own connection, and the pool hands
   a checked-out connection to a single requester.  The analysis seeds
   every spawn argument as shared, so it cannot see the per-thread
   ownership transfer. *)
let close t =
  (if not t.closed then begin
     t.closed <- true;
     try Unix.close t.fd with Unix.Unix_error _ -> ()
   end)
[@@lint.allow "domain-escape"]

(* --- Connection pools -----------------------------------------------------

   A router forwards many concurrent requests to the same shard; dialing
   per request would pay connect latency and churn fds.  A pool keeps up
   to [size] idle connections and dials on demand when all are checked
   out — the steady state is [<= size] sockets, but a burst never blocks
   on pool capacity (the overflow connection is simply closed on return
   instead of kept).  A connection that saw a transport error, or that
   still owes an answer nobody will read, is discarded, never
   re-pooled: its framing may be mid-frame. *)

module Pool = struct
  type conn = t

  type nonrec t = {
    connect : unit -> conn;
    size : int;
    mutex : Mutex.t;
    mutable free : conn list;
    mutable closed : bool;
  }

  let create ~size connect =
    if size < 1 then invalid_arg "Client.Pool.create: size must be >= 1";
    { connect; size; mutex = Mutex.create (); free = []; closed = false }

  let checkout p =
    Mutex.lock p.mutex;
    let pooled =
      match p.free with
      | _ when p.closed -> Error "pool is closed"
      | conn :: rest ->
          p.free <- rest;
          Ok (Some conn)
      | [] -> Ok None
    in
    Mutex.unlock p.mutex;
    match pooled with
    | Ok None -> transport (fun () -> Ok (p.connect ()))
    | Ok (Some conn) -> Ok conn
    | Error _ as e -> e

  let checkin p (conn : conn) =
    Mutex.lock p.mutex;
    let keep =
      (not p.closed) && (not conn.closed) && List.length p.free < p.size
    in
    if keep then p.free <- conn :: p.free;
    Mutex.unlock p.mutex;
    if not keep then close conn

  let discard (_ : t) conn = close conn

  let request p frame =
    Result.bind (checkout p) (fun conn ->
        match request conn frame with
        | Ok _ as ok ->
            checkin p conn;
            ok
        | Error _ as e ->
            discard p conn;
            e)

  let release p ~closed =
    Mutex.lock p.mutex;
    let conns = p.free in
    p.free <- [];
    if closed then p.closed <- true;
    Mutex.unlock p.mutex;
    List.iter close conns

  let drain p = release p ~closed:false
  let close_all p = release p ~closed:true
end

(* --- Retrying sessions ----------------------------------------------------

   Retries are restricted to outcomes that are safe to repeat: transport
   failures (connect refused, reset, per-attempt timeout — a SOLVE is a
   pure computation, so re-sending cannot double-apply anything) and the
   server's explicit backpressure answers BUSY and TIMEOUT.  Any other
   typed response is final.  Backoff is full-jitter exponential from a
   deterministic SplitMix64 stream, so a load test replays exactly given
   the same seed while a thundering herd still spreads out. *)

type retry_policy = {
  attempts : int;
  backoff_seconds : float;
  backoff_cap_seconds : float;
  attempt_timeout : float option;
}

let default_retry_policy =
  {
    attempts = 3;
    backoff_seconds = 0.010;
    backoff_cap_seconds = 0.250;
    attempt_timeout = None;
  }

type session = {
  policy : retry_policy;
  connect : unit -> t;
  rng : Rip_numerics.Prng.t;
  mutable conn : t option;
}

let session ?(policy = default_retry_policy) ~seed connect =
  if policy.attempts < 1 then
    invalid_arg "Client.session: attempts must be at least 1";
  { policy; connect; rng = Rip_numerics.Prng.create seed; conn = None }

(* domain-escape waiver: a session, like a connection, has a single
   owning thread (each loadgen worker gets its own); see [close]. *)
let close_session s =
  Option.iter close s.conn;
  s.conn <- None
[@@lint.allow "domain-escape"]

type outcome = {
  response : (Protocol.response, string) result;
  attempts : int;
  retried_transport : int;
  retried_busy : int;
  retried_timeout : int;
}

(* Full jitter: uniform in [0, min(cap, base * 2^k)). *)
let backoff_delay s ~retry_index =
  let base =
    s.policy.backoff_seconds *. Float.pow 2.0 (float_of_int retry_index)
  in
  let cap = Float.min base s.policy.backoff_cap_seconds in
  if cap <= 0.0 then 0.0 else Rip_numerics.Prng.float_range s.rng 0.0 cap

type retry_class = Transport | Busy_response | Timeout_response

let classify = function
  | Error _ -> Some Transport
  | Ok Protocol.Busy -> Some Busy_response
  | Ok Protocol.Timeout -> Some Timeout_response
  | Ok _ -> None

(* domain-escape waiver: single-owner session, see [close_session]. *)
let attempt_once s frame =
  match s.conn with
  | Some conn -> request conn frame
  | None ->
      transport (fun () ->
          let conn = s.connect () in
          Option.iter (set_timeout conn.fd) s.policy.attempt_timeout;
          s.conn <- Some conn;
          request conn frame)
[@@lint.allow "domain-escape"]

let request_with_retry s frame =
  let retried_transport = ref 0 in
  let retried_busy = ref 0 in
  let retried_timeout = ref 0 in
  let rec go attempt =
    let response = attempt_once s frame in
    (* A transport failure poisons the connection (framing may be mid-
       frame); drop it so the next attempt reconnects. *)
    (match response with
    | Error _ -> close_session s
    | Ok _ -> ());
    match classify response with
    | Some cls when attempt < s.policy.attempts ->
        (match cls with
        | Transport -> incr retried_transport
        | Busy_response -> incr retried_busy
        | Timeout_response -> incr retried_timeout);
        let delay = backoff_delay s ~retry_index:(attempt - 1) in
        if delay > 0.0 then Thread.delay delay;
        go (attempt + 1)
    | _ ->
        {
          response;
          attempts = attempt;
          retried_transport = !retried_transport;
          retried_busy = !retried_busy;
          retried_timeout = !retried_timeout;
        }
  in
  go 1
