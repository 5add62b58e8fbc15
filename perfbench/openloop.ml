(* The open-loop load generator.  Requests are due on a fixed schedule
   at an absolute offered rate and are issued on time whether or not
   earlier ones were answered: the main thread issues them, and one
   receiver thread multiplexes every connection with select.  That is
   two threads and at most two connections, the machine's core count.

   Latency is counted from when a request was due, not from when it was
   written, so a stall charges every request it delayed, including the
   time a request waited for a free connection.  The generator's own
   lateness (issued minus due) is reported separately: a run whose
   generator fell behind measured its own scheduling, not the system,
   and is marked invalid. *)

type sample = {
  due : float;  (* seconds on the monotonic clock *)
  mutable sent : float;  (* when the generator issued it *)
  mutable recv : float;  (* infinity when never answered *)
  mutable answer : string;  (* the raw response frame *)
}

let now = Rip_numerics.Cpu_clock.monotonic_seconds

let latency s = s.recv -. s.due
let lateness s = s.sent -. s.due

(* Fixed-interval schedule: request [i] is due at [start + i / rate]. *)
let schedule ~start ~rate ~duration =
  let n = int_of_float (Float.round (rate *. duration)) in
  Array.init n (fun i ->
      { due = start +. (float_of_int i /. rate); sent = Float.nan;
        recv = Float.infinity; answer = "" })

(* Requests due but not yet answered at instant [t]: written and
   waiting, or queued for a free connection. *)
let in_flight_at samples t =
  Array.fold_left
    (fun acc s -> if s.due <= t && s.recv > t then acc + 1 else acc)
    0 samples

(* A backlog is growing when the requests in flight over the last fifth
   of the window outnumber those over the second fifth (the first fifth
   is warm-up) by more than 4 requests or 2 % of the requests sent,
   whichever is larger: a system keeping up holds its in-flight count
   level, an overloaded one adds the excess arrivals to it every
   second.  Each fifth is sampled at [backlog_points] instants. *)
let backlog_points = 8

let backlog_growth samples ~start ~stop =
  let span = stop -. start in
  let mean_between a b =
    let total = ref 0 in
    for k = 0 to backlog_points - 1 do
      let t =
        start
        +. (span *. (a +. ((b -. a) *. (float_of_int k +. 0.5) /. float_of_int backlog_points)))
      in
      total := !total + in_flight_at samples t
    done;
    float_of_int !total /. float_of_int backlog_points
  in
  mean_between 0.8 1.0 -. mean_between 0.2 0.4

let backlog_growing samples ~start ~stop =
  let allowed = Float.max 4.0 (0.02 *. float_of_int (Array.length samples)) in
  backlog_growth samples ~start ~stop > allowed

(* --- Raw frame I/O --------------------------------------------------------- *)

(* Where the response frame starting at [pos] ends (exclusive), if it is
   complete: RESULT/DEGRADED/STATS/METRICS frames run to a line that is
   exactly END, every other response is one line. *)
let frame_end buf pos =
  let len = String.length buf in
  match String.index_from_opt buf pos '\n' with
  | None -> None
  | Some eol ->
      let header = String.sub buf pos (eol - pos) in
      let multi =
        List.exists
          (fun p -> String.starts_with ~prefix:p header)
          [ "RESULT"; "DEGRADED"; "STATS"; "METRICS" ]
      in
      if not multi then Some (eol + 1)
      else
        let rec scan from =
          if from >= len then None
          else
            match String.index_from_opt buf from '\n' with
            | None -> None
            | Some e ->
                if e - from = 3 && String.sub buf from 3 = "END" then Some (e + 1)
                else scan (e + 1)
        in
        scan (eol + 1)

(* One blocking request/response on [fd], returning the raw frame. *)
let round_trip fd frame =
  Rip_service.Wire.send fd frame;
  let buf = Buffer.create 512 and chunk = Bytes.create 4096 in
  let rec loop () =
    match frame_end (Buffer.contents buf) 0 with
    | Some e -> Buffer.sub buf 0 e
    | None ->
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n = 0 then failwith "connection closed mid-frame";
        Buffer.add_subbytes buf chunk 0 n;
        loop ()
  in
  loop ()

(* --- The run --------------------------------------------------------------- *)

(* Which connection carries a request: a fixed one, or whichever is
   free first.  A connection carries one request at a time, as in a
   client's connection pool; a request due while its connection (or
   every connection) is busy waits in a client-side queue, and that
   wait counts in its latency. *)
type dispatch = Fixed of (int -> int) | Any_free

type conn = {
  fd : Unix.file_descr;
  mutable current : int option;  (* the sample it carries *)
  mutable inbuf : string;
  mutable dead : bool;
}

(* Issue [frame i] at [samples.(i).due] and collect every answer.  The
   main thread issues on schedule; one receiver thread reads answers and
   hands each freed connection the next queued request.  Answers still
   missing [drain] seconds after the last due time, or lost with their
   connection, stay at [recv = infinity] and count as failures. *)
let run ?(drain = 10.0) ~fds ~dispatch ~frame samples =
  let conns =
    Array.map (fun fd -> { fd; current = None; inbuf = ""; dead = false }) fds
  in
  let nconn = Array.length conns in
  let shared = Queue.create () and own = Array.init nconn (fun _ -> Queue.create ()) in
  let lock = Mutex.create () in
  let total = Array.length samples in
  let settled = ref 0 in
  let last_due = if total = 0 then now () else samples.(total - 1).due in
  let give_up = last_due +. drain in
  (* Under [lock]: put request [i] on connection [k]. *)
  let write k i =
    let c = conns.(k) in
    c.current <- Some i;
    try Rip_service.Wire.send c.fd (frame i)
    with Unix.Unix_error _ -> ()
  in
  let waiting_for k =
    match dispatch with Fixed _ -> own.(k) | Any_free -> shared
  in
  let lose k =
    let c = conns.(k) in
    c.dead <- true;
    (match c.current with Some _ -> incr settled | None -> ());
    c.current <- None;
    (match dispatch with
    | Fixed _ ->
        settled := !settled + Queue.length own.(k);
        Queue.clear own.(k)
    | Any_free ->
        if Array.for_all (fun c -> c.dead) conns then begin
          settled := !settled + Queue.length shared;
          Queue.clear shared
        end)
  in
  let chunk = Bytes.create 65536 in
  let receiver () =
    let rec loop () =
      Mutex.lock lock;
      let finished = !settled >= total || now () > give_up in
      let live =
        Array.to_list conns |> List.filter (fun c -> not c.dead)
        |> List.map (fun c -> c.fd)
      in
      Mutex.unlock lock;
      if not finished then begin
        let ready, _, _ =
          try Unix.select live [] [] 0.01
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        List.iter
          (fun fd ->
            let k =
              let rec find j = if conns.(j).fd == fd then j else find (j + 1) in
              find 0
            in
            let c = conns.(k) in
            let n =
              try Unix.read fd chunk 0 (Bytes.length chunk)
              with Unix.Unix_error _ -> 0
            in
            let t = now () in
            Mutex.lock lock;
            if n = 0 then lose k
            else begin
              c.inbuf <- c.inbuf ^ Bytes.sub_string chunk 0 n;
              match frame_end c.inbuf 0 with
              | None -> ()
              | Some e -> (
                  (match c.current with
                  | Some i ->
                      samples.(i).recv <- t;
                      samples.(i).answer <- String.sub c.inbuf 0 e;
                      incr settled
                  | None -> ());
                  c.inbuf <- String.sub c.inbuf e (String.length c.inbuf - e);
                  c.current <- None;
                  match Queue.take_opt (waiting_for k) with
                  | Some next -> write k next
                  | None -> ())
            end;
            Mutex.unlock lock)
          ready;
        loop ()
      end
    in
    loop ()
  in
  let th = Thread.create receiver () in
  Array.iteri
    (fun i s ->
      let wait = s.due -. now () in
      if wait > 0.0 then Unix.sleepf wait;
      Mutex.lock lock;
      s.sent <- now ();
      (match dispatch with
      | Fixed f ->
          let k = f i in
          if conns.(k).dead then incr settled
          else if conns.(k).current = None then write k i
          else Queue.push i own.(k)
      | Any_free -> (
          let free = ref None in
          Array.iteri
            (fun k c ->
              if !free = None && (not c.dead) && c.current = None then free := Some k)
            conns;
          match !free with
          | Some k -> write k i
          | None ->
              if Array.for_all (fun c -> c.dead) conns then incr settled
              else Queue.push i shared));
      Mutex.unlock lock)
    samples;
  Thread.join th
