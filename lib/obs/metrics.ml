(* Lock-free instruments.  The only mutex in this module guards the
   registry's registration list; the instruments themselves are plain
   atomics so the write path never blocks and never allocates. *)

module Stats = Rip_numerics.Stats

module Counter = struct
  type t = int Atomic.t

  let make () = Atomic.make 0
  let[@lint.hot] incr t = ignore (Atomic.fetch_and_add t 1)

  let[@lint.hot] add t n =
    if n < 0 then invalid_arg "Metrics.Counter.add: negative increment";
    ignore (Atomic.fetch_and_add t n)

  let value t = Atomic.get t
end

module Gauge = struct
  (* A float atomic: [set] is a plain store, [add] a CAS loop.  Gauges
     are low-rate (slot acquire/release), so contention is negligible. *)
  type t = float Atomic.t

  let make () = Atomic.make 0.0
  let[@lint.hot] set t v = Atomic.set t v

  let[@lint.hot] rec add t v =
    let current = Atomic.get t in
    if not (Atomic.compare_and_set t current (current +. v)) then add t v

  let value t = Atomic.get t
end

module Histogram = struct
  (* Sums are quantised to nanounits and accumulated as an int so
     [fetch_and_add] keeps the write path wait-free; at 1e-9 resolution
     the int range covers ~292 years of accumulated seconds. *)
  let nano = 1e9

  type t = {
    upper_bounds : float array;
    buckets : int Atomic.t array;  (* length upper_bounds + 1 (+Inf) *)
    sum_nano : int Atomic.t;
  }

  type snapshot = {
    upper_bounds : float array;
    counts : int array;
    count : int;
    sum : float;
  }

  let log_bounds ~lo ~hi ~per_decade =
    if not (0.0 < lo && lo < hi) then
      invalid_arg "Histogram.log_bounds: need 0 < lo < hi";
    if per_decade < 1 then
      invalid_arg "Histogram.log_bounds: per_decade must be positive";
    let step = 1.0 /. float_of_int per_decade in
    (* Stop as soon as a bound reaches [hi] (within float slop) and pin
       [hi] itself as the final bound, so the array is strictly
       increasing even when the log grid lands exactly on [hi]. *)
    let rec build acc k =
      let bound = lo *. Float.pow 10.0 (float_of_int k *. step) in
      if bound >= hi *. (1.0 -. 1e-9) then List.rev acc
      else build (bound :: acc) (k + 1)
    in
    Array.of_list (build [] 0 @ [ hi ])

  let default_latency_bounds = log_bounds ~lo:1e-6 ~hi:100.0 ~per_decade:5

  let make bounds =
    let n = Array.length bounds in
    if n = 0 then invalid_arg "Histogram.make: no buckets";
    for i = 1 to n - 1 do
      if bounds.(i) <= bounds.(i - 1) then
        invalid_arg "Histogram.make: bounds must be strictly increasing"
    done;
    {
      upper_bounds = Array.copy bounds;
      buckets = Array.init (n + 1) (fun _ -> Atomic.make 0);
      sum_nano = Atomic.make 0;
    }

  (* First bucket whose upper bound is >= v; the +Inf bucket otherwise. *)
  let[@lint.hot] bucket_index bounds v =
    let n = Array.length bounds in
    if v <= bounds.(0) then 0
    else if v > bounds.(n - 1) then n
    else begin
      let lo = ref 0 and hi = ref (n - 1) in
      (* invariant: bounds.(lo) < v <= bounds.(hi) *)
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if v <= bounds.(mid) then hi := mid else lo := mid
      done;
      !hi
    end

  let[@lint.hot] observe (t : t) v =
    let v = if Float.is_nan v then Float.infinity else v in
    let v = if v < 0.0 then 0.0 else v in
    let index =
      if Float.is_finite v then bucket_index t.upper_bounds v
      else Array.length t.upper_bounds
    in
    ignore (Atomic.fetch_and_add t.buckets.(index) 1);
    let quantised =
      if Float.is_finite v then int_of_float (Float.round (v *. nano)) else 0
    in
    ignore (Atomic.fetch_and_add t.sum_nano quantised)

  (* [count] is derived from the bucket reads themselves, so a snapshot
     can never disagree with its own buckets, however the reads race
     with writers. *)
  let snapshot (t : t) =
    let counts = Array.map Atomic.get t.buckets in
    {
      upper_bounds = Array.copy t.upper_bounds;
      counts;
      count = Array.fold_left ( + ) 0 counts;
      sum = float_of_int (Atomic.get t.sum_nano) /. nano;
    }

  let same_bounds (a : snapshot) (b : snapshot) =
    Array.length a.upper_bounds = Array.length b.upper_bounds
    && Array.for_all2 Float.equal a.upper_bounds b.upper_bounds

  let merge (a : snapshot) (b : snapshot) =
    if not (same_bounds a b) then
      invalid_arg "Histogram.merge: bucket bounds differ";
    let counts = Array.mapi (fun i c -> c + b.counts.(i)) a.counts in
    {
      upper_bounds = Array.copy a.upper_bounds;
      counts;
      count = a.count + b.count;
      sum = a.sum +. b.sum;
    }

  let diff (later : snapshot) (earlier : snapshot) =
    if not (same_bounds later earlier) then
      invalid_arg "Histogram.diff: bucket bounds differ";
    let counts =
      Array.mapi
        (fun i c ->
          let d = c - earlier.counts.(i) in
          if d < 0 then
            invalid_arg "Histogram.diff: negative bucket delta"
          else d)
        later.counts
    in
    {
      upper_bounds = Array.copy later.upper_bounds;
      counts;
      count = Array.fold_left ( + ) 0 counts;
      sum = later.sum -. earlier.sum;
    }

  type bound_estimate = Lower | Interpolated | Upper

  (* Estimate the 0-based [j]-th order statistic from the buckets. *)
  let order_stat estimate (s : snapshot) j =
    let n_buckets = Array.length s.counts in
    let rec locate b cum =
      if b >= n_buckets then (n_buckets - 1, cum)  (* unreachable when j < count *)
      else if j < cum + s.counts.(b) then (b, cum)
      else locate (b + 1) (cum + s.counts.(b))
    in
    let b, cum_before = locate 0 0 in
    let finite = Array.length s.upper_bounds in
    let lower = if b = 0 then 0.0 else s.upper_bounds.(b - 1) in
    let upper =
      if b < finite then s.upper_bounds.(b) else Float.infinity
    in
    match estimate with
    | Lower -> lower
    | Upper -> upper
    | Interpolated ->
        if b >= finite then s.upper_bounds.(finite - 1)
        else
          let inside =
            (float_of_int (j - cum_before) +. 0.5)
            /. float_of_int s.counts.(b)
          in
          lower +. (inside *. (upper -. lower))

  let quantile ?(estimate = Interpolated) (s : snapshot) q =
    if q < 0.0 || q > 1.0 then
      invalid_arg "Histogram.quantile: q outside [0,1]";
    if s.count = 0 then 0.0
    else
      (* The same rank convention as Rip_numerics.Stats.quantile, so a
         histogram estimate and an exact sample quantile bracket the
         same order statistics. *)
      let rank = Stats.quantile_rank ~n:s.count q in
      let k = int_of_float (Float.floor rank) in
      let frac = rank -. float_of_int k in
      match estimate with
      | Lower -> order_stat Lower s k
      | Upper -> order_stat Upper s (Stdlib.min (s.count - 1) (k + 1))
      | Interpolated ->
          if frac = 0.0 then order_stat Interpolated s k
          else
            ((1.0 -. frac) *. order_stat Interpolated s k)
            +. (frac *. order_stat Interpolated s (k + 1))
end

(* --- Registry ------------------------------------------------------------- *)

type instrument =
  | I_counter of Counter.t
  | I_gauge of Gauge.t
  | I_counter_fn of (unit -> float)
  | I_gauge_fn of (unit -> float)
  | I_histogram of Histogram.t

type entry = { name : string; help : string; instrument : instrument }

type t = {
  mutex : Mutex.t;
  mutable entries : entry list;  (* reverse registration order *)
}

let create () = { mutex = Mutex.create (); entries = [] }

let valid_name name =
  name <> ""
  && (match name.[0] with
     | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
     | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       name

let register t ~name ~help instrument =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Metrics: invalid metric name %S" name);
  Mutex.lock t.mutex;
  let duplicate = List.exists (fun e -> e.name = name) t.entries in
  if not duplicate then t.entries <- { name; help; instrument } :: t.entries;
  Mutex.unlock t.mutex;
  if duplicate then
    invalid_arg (Printf.sprintf "Metrics: metric %S already registered" name)

let counter t ~name ~help =
  let c = Counter.make () in
  register t ~name ~help (I_counter c);
  c

let gauge t ~name ~help =
  let g = Gauge.make () in
  register t ~name ~help (I_gauge g);
  g

let counter_fn t ~name ~help f = register t ~name ~help (I_counter_fn f)
let gauge_fn t ~name ~help f = register t ~name ~help (I_gauge_fn f)

let histogram ?(bounds = Histogram.default_latency_bounds) t ~name ~help =
  let h = Histogram.make bounds in
  register t ~name ~help (I_histogram h);
  h

let entries t =
  Mutex.lock t.mutex;
  let es = List.rev t.entries in
  Mutex.unlock t.mutex;
  es

let registered_names t = List.map (fun e -> e.name) (entries t)

let find_histogram t name =
  List.find_map
    (fun e ->
      match e.instrument with
      | I_histogram h when e.name = name -> Some h
      | _ -> None)
    (entries t)

(* --- Prometheus text exposition ------------------------------------------- *)

let float_str v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* Prometheus text exposition escapes exactly two characters in HELP
   text: backslash and newline.  Help strings in this repo are single
   lines today, but conformance must not depend on that staying true. *)
let help_escape s =
  let buffer = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.contents buffer

type sample =
  | Counter_sample of float
  | Gauge_sample of float
  | Histogram_sample of Histogram.snapshot

(* One family's TYPE line and samples — shared by the registry's own
   rendering and by re-rendering a parsed (e.g. summed) exposition. *)
let render_sample buffer name sample =
  let line fmt = Printf.bprintf buffer (fmt ^^ "\n") in
  match sample with
  | Counter_sample v ->
      line "# TYPE %s counter" name;
      line "%s %s" name (float_str v)
  | Gauge_sample v ->
      line "# TYPE %s gauge" name;
      line "%s %s" name (float_str v)
  | Histogram_sample s ->
      line "# TYPE %s histogram" name;
      let cumulative = ref 0 in
      Array.iteri
        (fun i upper ->
          cumulative := !cumulative + s.Histogram.counts.(i);
          line "%s_bucket{le=\"%.17g\"} %d" name upper !cumulative)
        s.Histogram.upper_bounds;
      line "%s_bucket{le=\"+Inf\"} %d" name s.Histogram.count;
      line "%s_sum %.17g" name s.Histogram.sum;
      line "%s_count %d" name s.Histogram.count

let sample_of = function
  | I_counter c -> Counter_sample (float_of_int (Counter.value c))
  | I_gauge g -> Gauge_sample (Gauge.value g)
  | I_counter_fn f -> Counter_sample (f ())
  | I_gauge_fn f -> Gauge_sample (f ())
  | I_histogram h -> Histogram_sample (Histogram.snapshot h)

let render t =
  let buffer = Buffer.create 1024 in
  List.iter
    (fun e ->
      Printf.bprintf buffer "# HELP %s %s\n" e.name (help_escape e.help);
      render_sample buffer e.name (sample_of e.instrument))
    (entries t);
  Buffer.contents buffer

(* --- Exposition parsing (the METRICS reconciliation client) --------------- *)

type partial = {
  mutable bucket_rows : (float * int) list;  (* le bound, cumulative; rev *)
  mutable inf_count : int option;
  mutable p_sum : float option;
  mutable p_count : int option;
}

let strip_suffix ~suffix s =
  if String.length s > String.length suffix
     && String.ends_with ~suffix s
  then Some (String.sub s 0 (String.length s - String.length suffix))
  else None

let parse_histograms text =
  let families : (string, partial) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  let family name =
    match Hashtbl.find_opt families name with
    | Some p -> p
    | None ->
        let p =
          { bucket_rows = []; inf_count = None; p_sum = None; p_count = None }
        in
        Hashtbl.add families name p;
        order := name :: !order;
        p
  in
  let bucket_line line =
    (* name_bucket{le="<bound>"} <cumulative> *)
    match String.index_opt line '{' with
    | None -> None
    | Some brace -> (
        match strip_suffix ~suffix:"_bucket" (String.sub line 0 brace) with
        | None -> None
        | Some name -> (
            match String.index_from_opt line brace '}' with
            | None -> None
            | Some close ->
                let label = String.sub line (brace + 1) (close - brace - 1) in
                let value =
                  String.trim
                    (String.sub line (close + 1)
                       (String.length line - close - 1))
                in
                let bound =
                  match String.split_on_char '"' label with
                  | [ "le="; b; "" ] -> Some b
                  | _ -> None
                in
                match (bound, int_of_string_opt value) with
                | Some bound, Some n -> Some (name, bound, n)
                | _ -> None))
  in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if line <> "" && line.[0] <> '#' then
           match bucket_line line with
           | Some (name, "+Inf", n) -> (family name).inf_count <- Some n
           | Some (name, bound, n) -> (
               match float_of_string_opt bound with
               | Some b ->
                   let p = family name in
                   p.bucket_rows <- (b, n) :: p.bucket_rows
               | None -> ())
           | None -> (
               match String.index_opt line ' ' with
               | None -> ()
               | Some space -> (
                   let key = String.sub line 0 space in
                   let value =
                     String.sub line (space + 1)
                       (String.length line - space - 1)
                   in
                   match strip_suffix ~suffix:"_sum" key with
                   | Some name ->
                       (family name).p_sum <- float_of_string_opt value
                   | None -> (
                       match strip_suffix ~suffix:"_count" key with
                       | Some name ->
                           (family name).p_count <- int_of_string_opt value
                       | None -> ()))));
  List.rev !order
  |> List.filter_map (fun name ->
         let p = Hashtbl.find families name in
         match (p.inf_count, p.p_sum, p.p_count) with
         | Some total, Some sum, Some count when count = total ->
             let rows = List.rev p.bucket_rows in
             let upper_bounds = Array.of_list (List.map fst rows) in
             let cumulative = Array.of_list (List.map snd rows) in
             let n = Array.length cumulative in
             let monotone = ref true in
             let counts =
               Array.init (n + 1) (fun i ->
                   let c =
                     if i = 0 then if n = 0 then total else cumulative.(0)
                     else if i < n then cumulative.(i) - cumulative.(i - 1)
                     else total - cumulative.(n - 1)
                   in
                   if c < 0 then monotone := false;
                   c)
             in
             if !monotone then
               Some
                 ( name,
                   {
                     Histogram.upper_bounds;
                     counts;
                     count = total;
                     sum;
                   } )
             else None
         | _ -> None)

(* Scalar samples — counters and gauges, plus the _sum/_count series of
   histograms — for consumers that watch individual values rather than
   whole histograms (rip_top).  Label-carrying series are skipped: this
   registry never emits them. *)
let parse_scalars text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         if line = "" || line.[0] = '#' || String.contains line '{' then None
         else
           match String.index_opt line ' ' with
           | None -> None
           | Some space ->
               let name = String.sub line 0 space in
               let value =
                 String.trim
                   (String.sub line (space + 1)
                      (String.length line - space - 1))
               in
               if valid_name name then
                 Option.map (fun v -> (name, v)) (float_of_string_opt value)
               else None)

let scalar text name =
  (* First match wins; an exposition renders each family once. *)
  List.assoc_opt name (parse_scalars text)

(* --- Parsed expositions: one view over several processes ------------------ *)

module Exposition = struct
  type t = (string * sample) list

  let parse text =
    let scalars = parse_scalars text and histograms = parse_histograms text in
    let typed name kind =
      match kind with
      | "counter" ->
          Option.map (fun v -> Counter_sample v) (List.assoc_opt name scalars)
      | "gauge" ->
          Option.map (fun v -> Gauge_sample v) (List.assoc_opt name scalars)
      | "histogram" ->
          Option.map
            (fun h -> Histogram_sample h)
            (List.assoc_opt name histograms)
      | _ -> None
    in
    String.split_on_char '\n' text
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' line with
           | [ "#"; "TYPE"; name; kind ] ->
               Option.map (fun s -> (name, s)) (typed name kind)
           | _ -> None)

  let add a b =
    let sum name x y =
      match (x, y) with
      | Counter_sample x, Counter_sample y -> Counter_sample (x +. y)
      | Gauge_sample x, Gauge_sample y -> Gauge_sample (x +. y)
      | Histogram_sample x, Histogram_sample y ->
          Histogram_sample (Histogram.merge x y)
      | _ ->
          invalid_arg (Printf.sprintf "Exposition.add: %S has two types" name)
    in
    List.map
      (fun (name, x) ->
        match List.assoc_opt name b with
        | Some y -> (name, sum name x y)
        | None -> (name, x))
      a
    @ List.filter (fun (name, _) -> not (List.mem_assoc name a)) b

  let cumulative e =
    List.filter
      (fun (_, s) ->
        match s with
        | Counter_sample _ | Histogram_sample _ -> true
        | Gauge_sample _ -> false)
      e

  let value e name =
    match List.assoc_opt name e with
    | Some (Counter_sample v | Gauge_sample v) -> Some v
    | Some (Histogram_sample _) | None -> None

  let histogram e name =
    match List.assoc_opt name e with
    | Some (Histogram_sample h) -> Some h
    | Some (Counter_sample _ | Gauge_sample _) | None -> None

  let render e =
    let buffer = Buffer.create 1024 in
    List.iter (fun (name, s) -> render_sample buffer name s) e;
    Buffer.contents buffer
end
