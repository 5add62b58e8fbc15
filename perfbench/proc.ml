(* What the kernel knows about a process: CPU time and peak resident
   set, read from /proc so the figures cover every thread of the
   router and shard daemons, not only what they choose to report. *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (In_channel.input_all ic))

let clock_ticks = 100.0 (* USER_HZ, fixed at 100 on Linux *)

(* utime + stime in seconds.  Field 2 (comm) may contain spaces, so
   the fields are counted from the last ')'. *)
let cpu_seconds pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> None
  | Some s -> (
      match String.rindex_opt s ')' with
      | None -> None
      | Some i -> (
          let rest = String.sub s (i + 2) (String.length s - i - 2) in
          let fields = Array.of_list (String.split_on_char ' ' rest) in
          (* rest starts at field 3 (state); utime = 14, stime = 15 *)
          match
            (int_of_string_opt fields.(11), int_of_string_opt fields.(12))
          with
          | Some u, Some st -> Some (float_of_int (u + st) /. clock_ticks)
          | _ -> None
          | exception Invalid_argument _ -> None))

let self_cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* VmHWM, the peak resident set, in MiB. *)
let peak_rss_mb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | None -> None
  | Some s ->
      List.find_map
        (fun line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match
                String.split_on_char ' ' (String.trim v)
                |> List.filter (fun x -> x <> "")
              with
              | kb :: _ -> Option.map (fun k -> float_of_int k /. 1024.0)
                             (int_of_string_opt kb)
              | [] -> None)
          | _ -> None)
        (String.split_on_char '\n' s)
