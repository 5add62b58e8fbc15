(* Where a daemon writes a trace dump or a wide-event spool. *)

let rec ensure_dir dir =
  if
    String.equal dir "" || String.equal dir "." || String.equal dir "/"
    || Sys.file_exists dir
  then ()
  else begin
    ensure_dir (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let path ~default_name path =
  let is_dir =
    (Sys.file_exists path && Sys.is_directory path)
    || String.ends_with ~suffix:"/" path
  in
  if is_dir then begin
    ensure_dir path;
    Filename.concat path default_name
  end
  else begin
    ensure_dir (Filename.dirname path);
    path
  end
