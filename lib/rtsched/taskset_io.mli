(** Plain-text taskset files, so users can run the analyses on their
    own systems without writing OCaml.

    Format (line oriented; [#] starts a comment; blank lines ignored):

    {v
    cores 2
    # rt  <name> <wcet> <period> [deadline]     (times in ticks/ms)
    rt  navigation 240 500
    rt  camera 1120 5000 5000
    # sec <name> <wcet> <period_max>
    sec tripwire 5342 10000
    sec kmod-checker 223 10000
    v}

    RT priorities are assigned rate-monotonically (the paper's
    assumption); security priorities follow file order (first line =
    highest), matching "designer-provided distinct priorities". Ids
    are assigned in file order within each class. *)

val parse : string -> (Task.taskset, string) result
(** Parses file content. The error string names the offending line. *)

val load : string -> (Task.taskset, string) result
(** Reads and parses a file ([Error] also covers I/O failures). *)

val to_string : Task.taskset -> string
(** Renders a taskset in the same format ([parse (to_string ts)]
    round-trips the parameters). *)
