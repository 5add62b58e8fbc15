(* rip_serviced: the persistent solve daemon.

     rip_serviced --socket /tmp/rip.sock --jobs 4
     rip_serviced --port 7177 --cache-capacity 1024
     rip_serviced --faults 'seed=7,delay:p=0.3:ms=20,kill:p=0.1'   # chaos

   Speaks the Rip_service.Protocol line protocol (SOLVE/METRICS/HEALTH/
   PING/SHUTDOWN) over a Unix-domain or TCP socket; see the README's "Running
   the service" section for the grammar and a socat session.  Runs until
   a SHUTDOWN frame or SIGINT/SIGTERM.

   Fault injection (--faults, or the RIP_FAULTS environment variable;
   the flag wins) is for chaos testing only and is off by default. *)

module Server = Rip_service.Server
module Faults = Rip_service.Faults
module Trace = Rip_obs.Trace
module Wide_event = Rip_obs.Wide_event

let process = Rip_tech.Process.default_180nm

let resolve_faults = function
  | Some spec -> Result.map Option.some (Faults.parse_spec spec)
  | None -> Faults.of_env ()

let serve socket_path port host shard_id jobs cache_capacity queue_depth
    high_water max_frame_bytes faults_spec trace_out wide_events
    wide_sample_ratio wide_latency_threshold_ms journal_dir =
  if queue_depth < 1 then begin
    prerr_endline "rip_serviced: --queue-depth must be at least 1";
    2
  end
  else if high_water < 1 || high_water > queue_depth then begin
    Printf.eprintf
      "rip_serviced: --high-water %d must be between 1 and --queue-depth %d\n"
      high_water queue_depth;
    2
  end
  else if not (Rip_service.Protocol.valid_shard_id shard_id) then begin
    Printf.eprintf
      "rip_serviced: --shard-id %S must be a non-empty token over \
       [A-Za-z0-9._-]\n"
      shard_id;
    2
  end
  else if cache_capacity < 0 then begin
    prerr_endline "rip_serviced: --cache-capacity must not be negative";
    2
  end
  else if max_frame_bytes < 1 then begin
    prerr_endline "rip_serviced: --max-frame-bytes must be positive";
    2
  end
  else begin
    (* The journal lives in a per-shard subdirectory so several shards
       can share one --journal-dir without interleaving their logs, and
       a shard restarted with the same id finds exactly its own
       segments. *)
    let journal_dir =
      Option.map (fun dir -> Filename.concat dir shard_id) journal_dir
    in
    let journal_error =
      match journal_dir with
      | None -> None
      | Some dir -> (
          match Rip_service.Journal.prepare_dir dir with
          | Ok () -> None
          | Error e -> Some e)
    in
    match (journal_error, resolve_faults faults_spec) with
    | Some e, _ ->
        Printf.eprintf "rip_serviced: --journal-dir: %s\n" e;
        2
    | None, Error e ->
        Printf.eprintf "rip_serviced: %s\n" e;
        2
    | None, Ok faults ->
        Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
        (* One tracer for the daemon's lifetime; installed globally so
           engine batch spans land in the same timeline as the service
           spans.  Scoped by shard id and pid, so span ids and merged
           timelines stay collision-free across shards.  Dumped once,
           at shutdown. *)
        let tracer =
          Option.map
            (fun _ ->
              Trace.create ~scope:shard_id ~pid:(Unix.getpid ()) ())
            trace_out
        in
        if Option.is_some tracer then Trace.set_global tracer;
        let spool =
          Option.map
            (fun path ->
              let path =
                Rip_obs.Sink.path
                  ~default_name:(Printf.sprintf "wide-%s.jsonl" shard_id)
                  path
              in
              Wide_event.create
                ~sampler:
                  {
                    Wide_event.latency_threshold =
                      wide_latency_threshold_ms /. 1000.0;
                    sample_ratio = wide_sample_ratio;
                  }
                path)
            wide_events
        in
        let config =
          {
            Server.default_config with
            shard_id;
            jobs;
            queue_depth;
            high_water;
            cache_capacity;
            max_frame_bytes;
            faults;
            tracer;
            spool;
            journal_dir;
          }
        in
        let server = Server.create ~config process in
        (match Server.journal_recovery server with
        | None -> ()
        | Some r ->
            Printf.printf
              "rip_serviced[%s]: journal replayed %d records from %d \
               segment(s) (%d CRC-rejected, %d torn bytes truncated, %s \
               shutdown)\n\
               %!"
              shard_id (List.length r.Rip_service.Journal.entries)
              r.Rip_service.Journal.segments
              r.Rip_service.Journal.crc_rejected
              r.Rip_service.Journal.torn_bytes
              (if r.Rip_service.Journal.clean then "clean" else "unclean"));
        (* Flush the journal right at the signal, not only at the end of
           the clean-shutdown path: if the supervisor's grace window
           expires while connection threads are still draining, the
           SIGKILL then lands on an already-synced log. *)
        let stop _ =
          Server.journal_flush server;
          Server.request_shutdown server
        in
        Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
        Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
        let listen_fd, endpoint =
          match port with
          | Some port ->
              (Server.listen_tcp ~host ~port, Printf.sprintf "%s:%d" host port)
          | None -> (Server.listen_unix socket_path, socket_path)
        in
        Printf.printf
          "rip_serviced[%s]: listening on %s (jobs %s, cache %d entries, \
           queue depth %d, high water %d%s)\n\
           %!"
          shard_id endpoint
          (match jobs with Some j -> string_of_int j | None -> "auto")
          cache_capacity queue_depth high_water
          (if Option.is_some faults then ", FAULT INJECTION ON" else "");
        Server.run server listen_fd;
        (* Leave no stale socket file behind on a clean shutdown. *)
        (if port = None && Sys.file_exists socket_path then
           try Unix.unlink socket_path with Unix.Unix_error _ -> ());
        (match (tracer, trace_out) with
        | Some tr, Some path ->
            let path =
              Rip_obs.Sink.path
                ~default_name:(Printf.sprintf "trace-%s.json" shard_id)
                path
            in
            Trace.dump_to_file tr path;
            Printf.printf "rip_serviced: wrote %d trace spans to %s\n%!"
              (Trace.span_count tr) path
        | _ -> ());
        (match spool with
        | Some spool ->
            Printf.printf
              "rip_serviced: wide events: %d written, %d sampled out (%s)\n%!"
              (Wide_event.written spool)
              (Wide_event.sampled_out spool)
              (Wide_event.path spool);
            Wide_event.close spool
        | None -> ());
        Printf.printf "rip_serviced: shut down\n%!";
        0
  end

open Cmdliner

let socket_path =
  Arg.(
    value
    & opt string "rip_serviced.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path to listen on (ignored with --port).")

let port =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT" ~doc:"Listen on TCP instead of a Unix socket.")

let host =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"Bind address for --port.")

let shard_id =
  Arg.(
    value
    & opt string Rip_service.Server.default_config.shard_id
    & info [ "shard-id" ] ~docv:"ID"
        ~doc:"Shard identity reported in HEALTH frames — how a \
              routing front end (rip_routerd) tells shards apart.  A \
              non-empty token over [A-Za-z0-9._-].")

let jobs =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Worker domains of the solve pool (default: the machine's \
              recommended domain count; 1 solves inline in the connection \
              thread).")

let cache_capacity =
  Arg.(
    value & opt int Rip_service.Server.default_config.cache_capacity
    & info [ "cache-capacity" ] ~docv:"N"
        ~doc:"Solve-cache capacity in entries (0 disables caching).")

let queue_depth =
  Arg.(
    value & opt int Rip_service.Server.default_config.queue_depth
    & info [ "queue-depth" ] ~docv:"N"
        ~doc:"Maximum in-flight solves before new requests are rejected \
              with BUSY.")

let high_water =
  Arg.(
    value & opt int Rip_service.Server.default_config.high_water
    & info [ "high-water" ] ~docv:"N"
        ~doc:"In-flight solves beyond which new requests are answered from \
              the analytic fallback tier (DEGRADED overload) instead of \
              queueing a full solve.  Must not exceed --queue-depth.")

let max_frame_bytes =
  Arg.(
    value & opt int Rip_service.Server.default_config.max_frame_bytes
    & info [ "max-frame-bytes" ] ~docv:"BYTES"
        ~doc:"Request frames larger than this are rejected with TOOBIG and \
              the connection closed.")

let faults_spec =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:"Deterministic fault injection for chaos testing, e.g. \
              'seed=7,delay:p=0.5:ms=20,kill:p=0.1,drop:p=0.2:bytes=64,\
              corrupt:p=1'.  Also read from \\$RIP_FAULTS; this flag wins. \
              Off by default.")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Record per-request trace spans (admission, cache lookup, queue \
              wait, solve, solver phases) and write them as Chrome-trace \
              JSON to $(docv) at shutdown; open in chrome://tracing or \
              Perfetto, or merge across processes with rip_trace merge.  A \
              $(docv) ending in '/' (or naming a directory) writes \
              trace-<shard-id>.json inside it.  Requests carrying a TRACE \
              header keep their trace id on every span.  Off by default — \
              the span hooks are nops.")

let wide_events =
  Arg.(
    value
    & opt (some string) None
    & info [ "wide-events" ] ~docv:"FILE"
        ~doc:"Emit one structured wide-event JSON line per SOLVE to this \
              bounded spool, tail-sampled: errors, timeouts, degraded and \
              hedge/failover-involved requests are always kept, the rest \
              pass a latency threshold or a probabilistic sample.  A \
              $(docv) ending in '/' writes wide-<shard-id>.jsonl inside \
              it.  Query offline with rip_trace query.")

let wide_sample_ratio =
  Arg.(
    value
    & opt float Rip_obs.Wide_event.default_sampler.sample_ratio
    & info [ "wide-sample-ratio" ] ~docv:"R"
        ~doc:"Fraction of uninteresting (fast, successful) wide events kept \
              by the tail sampler, in [0,1]; 1 keeps everything.")

let wide_latency_threshold_ms =
  Arg.(
    value
    & opt float
        (Rip_obs.Wide_event.default_sampler.latency_threshold *. 1000.0)
    & info [ "wide-latency-threshold-ms" ] ~docv:"MS"
        ~doc:"Requests at least this slow are always kept by the tail \
              sampler, whatever their outcome.")

let journal_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal-dir" ] ~docv:"DIR"
        ~doc:"Crash-durable solve journal: every verified cache insert is \
              appended to an fsync-batched log under \
              $(docv)/<shard-id>/ and replayed at the next boot to \
              pre-warm the cache (the rip_cache_replayed counter in \
              METRICS).  The directory is created if missing.  Off by \
              default — the cache is purely in-memory.")

let main =
  Cmd.v
    (Cmd.info "rip_serviced" ~version:"1.0.0"
       ~doc:"Persistent repeater-insertion solve service with a canonical-form \
             result cache, deadlines and graceful degradation")
    Term.(
      const serve $ socket_path $ port $ host $ shard_id $ jobs
      $ cache_capacity $ queue_depth $ high_water $ max_frame_bytes
      $ faults_spec $ trace_out $ wide_events $ wide_sample_ratio
      $ wide_latency_threshold_ms $ journal_dir)

let () = exit (Cmd.eval' main)
