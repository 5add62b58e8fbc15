(* What one run found, and how it is printed: one human-readable line
   per metric with its unit and sample count, then the single JSON
   result line that must come last on stdout. *)

type t = {
  mutable values : (string * float) list;
  mutable samples : (string * int) list;  (* metric -> sample count *)
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : string list;  (* oracle violations *)
  mutable invalid : string list;  (* measurement-validity problems *)
  mutable notes : string list;  (* extra human-readable lines *)
}

let create () =
  { values = []; samples = []; attempted = 0; failed = 0; wrong = [];
    invalid = []; notes = [] }

let set r ?n name v =
  r.values <- (name, v) :: List.remove_assoc name r.values;
  match n with
  | Some n -> r.samples <- (name, n) :: List.remove_assoc name r.samples
  | None -> ()

(* Exit status of a finished run: 1 when an answer was wrong, 3 when
   the measurement is invalid, 0 otherwise. *)
let exit_code r = if r.wrong <> [] then 1 else if r.invalid <> [] then 3 else 0

let note r line = r.notes <- line :: r.notes
let wrong r msg = r.wrong <- msg :: r.wrong
let invalid r msg = r.invalid <- msg :: r.invalid

let print ~workload ~specs r =
  Printf.printf "perfbench %s\n" workload;
  List.iter (fun l -> Printf.printf "  %s\n" l) (List.rev r.notes);
  List.iter
    (fun (s : Metric.spec) ->
      let shown =
        match List.assoc_opt s.Metric.name r.values with
        | Some v -> Printf.sprintf "%.6g" v
        | None -> "n/a"
      in
      let n =
        match List.assoc_opt s.Metric.name r.samples with
        | Some n -> Printf.sprintf "  (n=%d)" n
        | None -> ""
      in
      Printf.printf "  %-34s %14s %-6s%s\n" s.Metric.name shown s.Metric.unit_ n)
    specs;
  List.iter
    (fun (name, v) ->
      if not (List.exists (fun (s : Metric.spec) -> String.equal s.Metric.name name) specs)
      then
        let unit_ = try (Metric.find name).Metric.unit_ with Not_found -> "" in
        let n =
          match List.assoc_opt name r.samples with
          | Some n -> Printf.sprintf "  (n=%d)" n
          | None -> ""
        in
        Printf.printf "  %-34s %14.6g %-6s%s  (not in the result line)\n" name v unit_ n)
    (List.rev r.values);
  Printf.printf "  attempted %d, failed %d\n" r.attempted r.failed;
  List.iter (fun m -> Printf.printf "  WRONG: %s\n" m) (List.rev r.wrong);
  List.iter (fun m -> Printf.printf "  INVALID: %s\n" m) (List.rev r.invalid);
  print_endline
    (Metric.result_line ~correct:(r.wrong = []) ~attempted:(max 1 r.attempted)
       ~failed:r.failed ~specs r.values)
