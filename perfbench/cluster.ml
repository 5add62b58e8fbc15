(* A fresh rip_routerd in front of two rip_serviced shards, each its
   own process, spawned from the binaries built in this checkout.  The
   router is given the shards with --attach, so the benchmark owns every
   pid: it reads their CPU time and peak RSS from /proc, and it reaps all
   of them on every exit path, failure included.  Each cluster gets a
   fresh directory under [run_root] for its sockets, logs, journals and
   trace dumps, removed again at teardown.  Socket paths are relative to
   the working directory so they stay within the sun_path limit however
   deep the checkout sits. *)

let run_root = ".perfbench-run"
let shard_ids = [ "s0"; "s1" ]

type proc = { name : string; pid : int; mutable reaped : bool }

type t = {
  dir : string;
  router_socket : string;
  shard_sockets : (string * string) list;  (* id, socket *)
  procs : proc list;  (* shards first, router last *)
  trace_dir : string option;
}

let bin name =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) "../bin")
    name

let live : t list ref = ref []

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun entry -> remove_tree (Filename.concat path entry))
        (try Sys.readdir path with Sys_error _ -> [||]);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

let counter = ref 0

let fresh_dir () =
  incr counter;
  let dir =
    Filename.concat run_root
      (Printf.sprintf "%d-%d" (Unix.getpid ()) !counter)
  in
  remove_tree dir;
  mkdir_p dir;
  dir

let spawn ~dir ~name argv =
  let log =
    Unix.openfile
      (Filename.concat dir (name ^ ".log"))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o600
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log; Unix.close devnull)
      (fun () -> Unix.create_process argv.(0) argv devnull log log)
  in
  { name; pid; reaped = false }

let reap p =
  if not p.reaped then
    match Unix.waitpid [ Unix.WNOHANG ] p.pid with
    | 0, _ -> ()
    | _ -> p.reaped <- true
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> p.reaped <- true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let signal p s = if not p.reaped then try Unix.kill p.pid s with Unix.Unix_error _ -> ()

(* SIGTERM, a grace window for the daemons to drain and write their
   trace dumps, then SIGKILL; every pid is reaped before returning. *)
let stop_proc ?(grace = 10.0) p =
  signal p Sys.sigterm;
  let deadline = Unix.gettimeofday () +. grace in
  reap p;
  while (not p.reaped) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005;
    reap p
  done;
  if not p.reaped then begin
    signal p Sys.sigkill;
    while not p.reaped do
      (try
         ignore (Unix.waitpid [] p.pid);
         p.reaped <- true
       with
      | Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | Unix.Unix_error _ -> p.reaped <- true)
    done
  end

(* Router first: its exit closes the pooled shard connections the
   shards' connection threads are blocked on, so the shards can drain. *)
let teardown ?(keep_dir = false) t =
  List.iter (fun p -> stop_proc p) (List.rev t.procs);
  live := List.filter (fun c -> c != t) !live;
  if not keep_dir then remove_tree t.dir

let remove_dir t = remove_tree t.dir

let kill_all () =
  List.iter
    (fun t ->
      List.iter (fun p -> signal p Sys.sigkill) t.procs;
      List.iter (fun p -> stop_proc ~grace:1.0 p) t.procs;
      remove_tree t.dir)
    !live;
  live := [];
  (* The run root goes too once no cluster directory is left in it. *)
  try Unix.rmdir run_root with Unix.Unix_error _ -> ()

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> fd
  | exception e ->
      Unix.close fd;
      raise e

(* Connect-and-PING until PONG, polling every 2 ms, for at most
   [ready_timeout] seconds. *)
let ready_timeout = 20.0

let wait_ready p path =
  let deadline = Unix.gettimeofday () +. ready_timeout in
  let rec attempt () =
    let ok =
      match connect path with
      | exception Unix.Unix_error _ -> false
      | fd ->
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              try
                Rip_service.Wire.send fd "PING\n";
                let buf = Bytes.create 16 in
                let n = Unix.read fd buf 0 16 in
                n >= 4 && Bytes.sub_string buf 0 4 = "PONG"
              with Unix.Unix_error _ -> false)
    in
    if ok then Ok ()
    else begin
      reap p;
      if p.reaped then Error (Printf.sprintf "%s exited during start-up" p.name)
      else if Unix.gettimeofday () > deadline then
        Error (Printf.sprintf "%s not ready after %.0f s" p.name ready_timeout)
      else begin
        Unix.sleepf 0.002;
        attempt ()
      end
    end
  in
  attempt ()

let log_tail t =
  List.concat_map
    (fun p ->
      match Proc.read_file (Filename.concat t.dir (p.name ^ ".log")) with
      | None -> []
      | Some s ->
          let lines = String.split_on_char '\n' s in
          let n = List.length lines in
          List.filteri (fun i _ -> i >= n - 8) lines
          |> List.map (fun l -> p.name ^ ": " ^ l))
    t.procs

(* Spawn the shards, then the router over them; [Ok] once every
   process answers PING. *)
let start ?(journal = false) ?(traced = false) () =
  let dir = fresh_dir () in
  let trace_dir = if traced then Some (Filename.concat dir "trace/") else None in
  let trace_args =
    match trace_dir with Some d -> [ "--trace-out"; d ] | None -> []
  in
  let shard_sockets =
    List.map (fun id -> (id, Filename.concat dir (id ^ ".sock"))) shard_ids
  in
  let shard_procs =
    List.map
      (fun (id, socket) ->
        let journal_args =
          if journal then [ "--journal-dir"; Filename.concat dir "journal" ]
          else []
        in
        spawn ~dir ~name:id
          (Array.of_list
             ([ bin "rip_serviced.exe"; "--socket"; socket; "--shard-id"; id;
                "--jobs"; "1" ]
             @ journal_args @ trace_args)))
      shard_sockets
  in
  let router_socket = Filename.concat dir "router.sock" in
  let t0 = { dir; router_socket; shard_sockets; procs = shard_procs; trace_dir } in
  live := t0 :: !live;
  let ready =
    List.fold_left2
      (fun acc p (_, socket) ->
        match acc with Error _ -> acc | Ok () -> wait_ready p socket)
      (Ok ()) shard_procs shard_sockets
  in
  match ready with
  | Error e -> Error (e, t0)
  | Ok () ->
      let router =
        spawn ~dir ~name:"router"
          (Array.of_list
             ([ bin "rip_routerd.exe"; "--socket"; router_socket; "--shards";
                "0" ]
             @ List.concat_map
                 (fun (id, s) -> [ "--attach"; id ^ "=" ^ s ])
                 shard_sockets
             @ trace_args))
      in
      let t = { t0 with procs = shard_procs @ [ router ] } in
      live := t :: List.filter (fun c -> c != t0) !live;
      (match wait_ready router router_socket with
      | Ok () -> Ok t
      | Error e -> Error (e, t))

let pids t = List.map (fun p -> p.pid) t.procs

let cpu_seconds t =
  List.fold_left
    (fun acc pid -> acc +. Option.value ~default:0.0 (Proc.cpu_seconds pid))
    0.0 (pids t)

let peak_rss_mb t =
  List.fold_left
    (fun acc pid -> Float.max acc (Option.value ~default:0.0 (Proc.peak_rss_mb pid)))
    0.0 (pids t)
