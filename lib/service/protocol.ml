type error_kind =
  | Protocol_error
  | Infeasible_budget
  | Invalid_net
  | Internal_error

type solution = {
  repeaters : (float * float) list;
  total_width : float;
  delay : float;
  power_watts : float;
}

type served = Fresh | Cached

type degrade_reason = Deadline_exceeded | Overload | Worker_lost

type health = {
  health_shard_id : string;
  health_in_flight : int;
  health_queue_depth : int;
  health_high_water : int;
}

module Trace = Rip_obs.Trace

type request =
  | Ping
  | Metrics
  | Health
  | Shutdown
  | Solve of {
      budget : float;
      deadline_ms : float option;
      trace : Trace.context option;
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
      (* Prometheus text exposition, newline-terminated lines *)
  | Health_frame of health

(* --- Printing ------------------------------------------------------------ *)

let error_kind_to_string = function
  | Protocol_error -> "protocol"
  | Infeasible_budget -> "infeasible_budget"
  | Invalid_net -> "invalid_net"
  | Internal_error -> "internal"

let error_kind_of_string = function
  | "protocol" -> Some Protocol_error
  | "infeasible_budget" -> Some Infeasible_budget
  | "invalid_net" -> Some Invalid_net
  | "internal" -> Some Internal_error
  | _ -> None

let one_line message =
  String.concat "; "
    (List.filter
       (fun s -> s <> "")
       (String.split_on_char '\n' (String.map (function '\r' -> '\n' | c -> c) message)))

let served_to_string = function Fresh -> "fresh" | Cached -> "cached"

let degrade_reason_to_string = function
  | Deadline_exceeded -> "deadline"
  | Overload -> "overload"
  | Worker_lost -> "worker-lost"

let degrade_reason_of_string = function
  | "deadline" -> Some Deadline_exceeded
  | "overload" -> Some Overload
  | "worker-lost" -> Some Worker_lost
  | _ -> None

(* A shard id travels on the single-line HEALTHY frame, so it
   must be one whitespace-free token.  Enforced here once, for servers
   and routers alike. *)
let valid_shard_id id =
  id <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '-' || c = '_' || c = '.')
       id

let print_request = function
  | Ping -> "PING\n"
  | Metrics -> "METRICS\n"
  | Health -> "HEALTH\n"
  | Shutdown -> "SHUTDOWN\n"
  | Solve { budget; deadline_ms; trace; net } ->
      let deadline =
        match deadline_ms with
        | None -> ""
        | Some ms -> Printf.sprintf " DEADLINE %.17g" ms
      in
      let traced =
        match trace with
        | None -> ""
        | Some c ->
            Printf.sprintf " TRACE %s %s %d" c.Trace.trace_id
              c.Trace.parent_span_id c.Trace.flags
      in
      Printf.sprintf "SOLVE %.17g%s%s\n%sEND\n" budget deadline traced
        (Rip_net.Net_io.to_string net)

let solution_body solution =
  let buffer = Buffer.create 128 in
  List.iter
    (fun (position, width) ->
      Buffer.add_string buffer
        (Printf.sprintf "repeater %.17g %.17g\n" position width))
    solution.repeaters;
  Buffer.add_string buffer (Printf.sprintf "width %.17g\n" solution.total_width);
  Buffer.add_string buffer (Printf.sprintf "delay %.17g\n" solution.delay);
  Buffer.add_string buffer (Printf.sprintf "power %.17g\n" solution.power_watts);
  Buffer.contents buffer

let print_response = function
  | Pong -> "PONG\n"
  | Bye -> "BYE\n"
  | Busy -> "BUSY\n"
  | Timeout -> "TIMEOUT\n"
  | Toobig -> "TOOBIG\n"
  | Error_frame { kind; message } ->
      Printf.sprintf "ERROR %s %s\n" (error_kind_to_string kind)
        (one_line message)
  | Result { served; solution } ->
      Printf.sprintf "RESULT %s\n%sEND\n" (served_to_string served)
        (solution_body solution)
  | Degraded { reason; solution } ->
      Printf.sprintf "DEGRADED %s\n%sEND\n"
        (degrade_reason_to_string reason)
        (solution_body solution)
  | Metrics_frame body -> Printf.sprintf "METRICS\n%sEND\n" body
  | Health_frame h ->
      Printf.sprintf "HEALTHY %s %d %d %d\n" h.health_shard_id
        h.health_in_flight h.health_queue_depth h.health_high_water

(* --- Parsing ------------------------------------------------------------- *)

type reader = unit -> string option

let strip_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

let reader_of_channel ic () =
  match input_line ic with
  | line -> Some (strip_cr line)
  | exception End_of_file -> None

let reader_of_lines lines =
  let remaining = ref lines in
  fun () ->
    match !remaining with
    | [] -> None
    | line :: rest ->
        remaining := rest;
        Some (strip_cr line)

let ( let* ) = Result.bind

let parse_float what s =
  match float_of_string_opt s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "bad %s %S" what s)

let parse_int what s =
  match int_of_string_opt s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "bad %s %S" what s)

(* Collect raw lines until the END marker; [Error] when the stream ends
   first (a truncated frame). *)
let body_until_end read =
  let rec loop acc =
    match read () with
    | None -> Error "unexpected end of stream inside a frame (missing END)"
    | Some "END" -> Ok (List.rev acc)
    | Some line -> loop (line :: acc)
  in
  loop []

let split_words line =
  List.filter (fun s -> s <> "") (String.split_on_char ' ' line)

let input_request read =
  match read () with
  | None -> Ok None
  | Some line -> (
      match split_words line with
      | [ "PING" ] -> Ok (Some Ping)
      | [ "METRICS" ] -> Ok (Some Metrics)
      | [ "HEALTH" ] -> Ok (Some Health)
      | [ "SHUTDOWN" ] -> Ok (Some Shutdown)
      | "SOLVE" :: budget :: header ->
          let* budget = parse_float "budget" budget in
          (* DEADLINE affects correctness, so a malformed one is a
             protocol error.  TRACE is best-effort observability: a
             malformed, truncated, oversized or duplicated TRACE
             degrades the request to untraced — the solve must never
             fail because telemetry plumbing did. *)
          let is_keyword t = String.equal t "DEADLINE" || String.equal t "TRACE" in
          let rec drop_until_keyword = function
            | t :: rest when not (is_keyword t) -> drop_until_keyword rest
            | rest -> rest
          in
          let rec parse_header deadline trace header =
            match header with
            | [] -> Ok (deadline, trace)
            | "DEADLINE" :: ms :: rest ->
                let* ms = parse_float "deadline" ms in
                if ms < 0.0 then Error "negative deadline"
                else parse_header (Some ms) trace rest
            | "TRACE" :: tid :: psid :: flags :: rest
              when not (is_keyword tid || is_keyword psid || is_keyword flags)
              ->
                let trace =
                  match
                    ( trace,
                      Trace.context_of_tokens ~trace_id:tid
                        ~parent_span_id:psid ~flags )
                  with
                  | None, Some c -> Some (Some c)
                  | _, _ -> Some None  (* duplicate or invalid: untraced *)
                in
                parse_header deadline trace rest
            | "TRACE" :: rest ->
                (* Truncated TRACE: discard its tokens, keep parsing. *)
                parse_header deadline (Some None) (drop_until_keyword rest)
            | _ -> Error "malformed SOLVE header"
          in
          let* deadline_ms, trace = parse_header None None header in
          let trace = Option.join trace in
          let* body = body_until_end read in
          let* net =
            Result.map_error
              (fun e -> Printf.sprintf "bad net body: %s" e)
              (Rip_net.Net_io.parse_string (String.concat "\n" body))
          in
          Ok (Some (Solve { budget; deadline_ms; trace; net }))
      | [] -> Error "empty request line"
      | word :: _ -> Error (Printf.sprintf "unknown request %S" word))

let parse_solution_body lines =
  let rec loop repeaters_rev = function
    | [] -> Error "truncated RESULT body"
    | line :: rest -> (
        match split_words line with
        | [ "repeater"; position; width ] ->
            let* position = parse_float "repeater position" position in
            let* width = parse_float "repeater width" width in
            loop ((position, width) :: repeaters_rev) rest
        | [ "width"; total ] -> (
            let* total_width = parse_float "total width" total in
            match rest with
            | [ delay_line; power_line ] -> (
                match (split_words delay_line, split_words power_line) with
                | [ "delay"; d ], [ "power"; p ] ->
                    let* delay = parse_float "delay" d in
                    let* power_watts = parse_float "power" p in
                    Ok
                      {
                        repeaters = List.rev repeaters_rev;
                        total_width;
                        delay;
                        power_watts;
                      }
                | _, _ -> Error "malformed RESULT body tail")
            | _ -> Error "malformed RESULT body tail")
        | _ -> Error (Printf.sprintf "bad RESULT body line %S" line))
  in
  loop [] lines

let input_response read =
  match read () with
  | None -> Ok None
  | Some line -> (
      match split_words line with
      | [ "PONG" ] -> Ok (Some Pong)
      | [ "BYE" ] -> Ok (Some Bye)
      | [ "BUSY" ] -> Ok (Some Busy)
      | [ "TIMEOUT" ] -> Ok (Some Timeout)
      | [ "TOOBIG" ] -> Ok (Some Toobig)
      | "ERROR" :: kind :: _ -> (
          match error_kind_of_string kind with
          | None -> Error (Printf.sprintf "unknown error kind %S" kind)
          | Some kind ->
              (* The message is the rest of the raw line, spaces intact. *)
              let prefix = "ERROR " ^ error_kind_to_string kind in
              let message =
                if String.length line > String.length prefix + 1 then
                  String.sub line
                    (String.length prefix + 1)
                    (String.length line - String.length prefix - 1)
                else ""
              in
              Ok (Some (Error_frame { kind; message })))
      | [ "RESULT"; served ] ->
          let* served =
            match served with
            | "fresh" -> Ok Fresh
            | "cached" -> Ok Cached
            | other -> Error (Printf.sprintf "unknown RESULT tag %S" other)
          in
          let* body = body_until_end read in
          let* solution = parse_solution_body body in
          Ok (Some (Result { served; solution }))
      | [ "DEGRADED"; reason ] ->
          let* reason =
            match degrade_reason_of_string reason with
            | Some r -> Ok r
            | None -> Error (Printf.sprintf "unknown DEGRADED reason %S" reason)
          in
          let* body = body_until_end read in
          let* solution = parse_solution_body body in
          Ok (Some (Degraded { reason; solution }))
      | [ "METRICS" ] ->
          (* Keep the raw lines: the body is opaque Prometheus text, and
             Prometheus never emits a bare END line. *)
          let* body = body_until_end read in
          let body =
            String.concat "" (List.map (fun l -> l ^ "\n") body)
          in
          Ok (Some (Metrics_frame body))
      | [ "HEALTHY"; shard_id; in_flight; queue_depth; high_water ] ->
          if not (valid_shard_id shard_id) then
            Error (Printf.sprintf "bad shard_id %S" shard_id)
          else
            let* health_in_flight = parse_int "in_flight" in_flight in
            let* health_queue_depth = parse_int "queue_depth" queue_depth in
            let* health_high_water = parse_int "high_water" high_water in
            Ok
              (Some
                 (Health_frame
                    {
                      health_shard_id = shard_id;
                      health_in_flight;
                      health_queue_depth;
                      health_high_water;
                    }))
      | [] -> Error "empty response line"
      | word :: _ -> Error (Printf.sprintf "unknown response %S" word))

(* --- Equality ------------------------------------------------------------ *)

let request_equal a b =
  match (a, b) with
  | Ping, Ping | Metrics, Metrics | Health, Health
  | Shutdown, Shutdown ->
      true
  | Solve a, Solve b ->
      a.budget = b.budget
      && Option.equal Float.equal a.deadline_ms b.deadline_ms
      && Option.equal Trace.context_equal a.trace b.trace
      && Rip_net.Net.equal a.net b.net
  | (Ping | Metrics | Health | Shutdown | Solve _), _ -> false

let solution_equal a b =
  List.equal
    (fun (p, w) (p', w') -> p = p' && w = w')
    a.repeaters b.repeaters
  && a.total_width = b.total_width && a.delay = b.delay
  && a.power_watts = b.power_watts

let response_equal a b =
  match (a, b) with
  | Pong, Pong | Bye, Bye | Busy, Busy | Timeout, Timeout | Toobig, Toobig ->
      true
  | Error_frame a, Error_frame b -> a.kind = b.kind && a.message = b.message
  | Result a, Result b ->
      a.served = b.served && solution_equal a.solution b.solution
  | Degraded a, Degraded b ->
      a.reason = b.reason && solution_equal a.solution b.solution
  | Metrics_frame a, Metrics_frame b -> String.equal a b
  | Health_frame a, Health_frame b ->
      String.equal a.health_shard_id b.health_shard_id
      && a.health_in_flight = b.health_in_flight
      && a.health_queue_depth = b.health_queue_depth
      && a.health_high_water = b.health_high_water
  | ( ( Pong | Bye | Busy | Timeout | Toobig | Error_frame _ | Result _
      | Degraded _ | Metrics_frame _ | Health_frame _ ),
      _ ) ->
      false
