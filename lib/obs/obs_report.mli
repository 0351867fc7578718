(** Offline consumer of metrics snapshots: load, summarize, diff.

    This is the library half of the [hydra_c obs-report] CLI
    subcommand (bin/hydra_experiments.ml): it reads the registry's one
    serialized form, a [hydra_c.metrics/1] snapshot (one JSON object,
    [Hydra_obs.Snapshot.write] / [--metrics-out], or the daemon's
    [obs_snapshot] reply), into a {!snapshot} value and renders
    deterministic summary and diff tables plus a threshold verdict for
    CI regression gates. What moved between two scrapes is {!diff} of
    them. Everything here is pure: rendering goes to a caller-supplied
    formatter and file access is isolated in {!load}. Schema details
    in doc/OBSERVABILITY.md. *)

type dist = { d_count : int; d_sum : int; d_min : int; d_max : int }

type hist = {
  h_count : int;
  h_sum : int;
  h_min : int;
  h_max : int;
  h_buckets : (int * int) list;
      (** (upper bound, count) of occupied buckets, ascending *)
}

type snapshot = {
  counters : (string * int) list;
  dists : (string * dist) list;
  hists : (string * hist) list;
  spans : (string * int) list;  (** span counts *)
}
(** A normalized snapshot; every association list is sorted by name. *)

val schema : string
(** ["hydra_c.metrics/1"], the one snapshot schema {!of_string}
    accepts; [Hydra_obs.Snapshot] writes it. *)

val of_string : string -> snapshot
(** Parse the contents of a snapshot artifact: a single JSON object
    with schema [hydra_c.metrics/1]. @raise Obs_json.Error on
    malformed input or any other schema. *)

val load : string -> (snapshot, string) result
(** {!of_string} of a file's contents; I/O and parse errors are
    returned as [Error message] (prefixed with the path). *)

val quantile : hist -> float -> int
(** Rank-select quantile over the serialized buckets, clamped to the
    recorded maximum — the same rule as
    {!Hydra_obs.Histogram.quantile}, so a quantile recomputed from a
    loaded snapshot equals the one the writer stored. [0] on an empty
    histogram. *)

(** {1 Flattened metrics}

    Diffing works on one scalar per key: counters flatten to
    [<name>], distributions to [<name>.count]/[<name>.mean], histograms
    to [<name>.count]/[<name>.p50]/[<name>.p99]/[<name>.max], spans to
    [<name>.count]. *)

type change = {
  key : string;
  before : float option;  (** [None] = key absent from the first file *)
  after : float option;
}

val flatten : snapshot -> (string * float) list
(** The scalar view described above, sorted by key. *)

val diff : snapshot -> snapshot -> change list
(** One {!change} per key present in either snapshot, sorted. *)

val pct_change : change -> float option
(** Relative change in percent, when both sides are present:
    [(after - before) / before * 100.]; [infinity] when [before = 0.]
    and [after > 0.]; [None] when either side is missing. *)

val regressions :
  ?watch:(string -> bool) -> threshold_pct:float -> change list -> change list
(** Changes whose {!pct_change} exceeds [threshold_pct] (an increase —
    more work, higher latency), restricted to keys satisfying [watch]
    (default: every key). The verdict the CLI turns into its exit
    code. *)

(** {1 Rendering}

    Both renderers are deterministic: sorted keys, fixed column
    layout, no wall-clock content. *)

val pp_summary : Format.formatter -> snapshot -> unit
(** Summary table of one snapshot: counters, distributions, histogram
    quantiles recomputed via {!quantile}, and span counts. *)

val pp_diff : ?only_changed:bool -> Format.formatter -> change list -> unit
(** Diff table: key, before, after, delta, percent. [only_changed]
    (default [true]) drops rows whose value is unchanged. *)
