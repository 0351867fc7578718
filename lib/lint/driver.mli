(** Whole-tree runs: walk directories, analyze every [.ml] (phase 1,
    per-file findings + {!Summary.t}), link the summaries into a call
    graph and run the interprocedural rules D7/D8 (phase 2, {!Reach}),
    apply the checked-in allowlist, render reports.

    The run obeys the repo determinism contract end to end:
    [Sys.readdir] order is unspecified, so files are sorted before
    linting, and both phases run sequentially over the sorted list.
    Findings, notes and every report format depend only on the paths
    and the files' contents. *)

type result = {
  findings : Finding.t list;  (** sorted, allowlist already applied *)
  notes : Finding.t list;
      (** phase-2 "cannot prove" diagnostics — informational, never
          gate the exit code; sorted, allowlist-filtered *)
  errors : string list;  (** read/parse failures, in walk order *)
  warnings : string list;
      (** non-fatal CLI diagnostics, e.g. a path argument that exists
          but contains no [.ml] files *)
  files_scanned : int;
}

val run : ?allowlist:Allowlist.t -> string list -> result
(** [run paths] lints every [.ml] under the given files/directories
    ([_build] and dot-directories are skipped). *)

(** [file:line:col [rule] message] lines; notes follow, prefixed
    ["note: "]. *)
val report_text : result -> string

(** One JSON object: [{"version":2,"files_scanned":N,"count":N,
    "findings":[...],"notes":[...]}], newline-terminated. [count] is
    the number of findings. *)
val report_json : result -> string

(** SARIF 2.1.0: one run, rule metadata from {!Rules.all}, findings at
    level ["error"], notes at level ["note"] (1-based columns). *)
val report_sarif : result -> string
