(** Output paths for trace dumps and wide-event spools. *)

val path : default_name:string -> string -> string
(** [path ~default_name p] is the file a daemon writes for the sink
    option [p].  A [p] ending in ['/'] or naming an existing directory
    means "put the file inside": the result is [p/default_name], so
    every process of a cluster can share one directory without their
    dumps clobbering each other.  Any other [p] is the file itself.
    Missing parent directories are created either way.
    @raise Unix.Unix_error when a directory cannot be created. *)
