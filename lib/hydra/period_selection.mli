(** Period selection for security tasks — paper Algorithms 1 and 2.

    Algorithm 1: start with every security period at its bound
    [T_s^max] and compute WCRTs top-down; if some task already misses
    [T_s^max] the set is unschedulable. Otherwise walk the security
    tasks from highest to lowest priority and, for each, find the
    minimum period in [\[R_s, T_s^max\]] (Algorithm 2: binary search
    collecting feasible candidates) that keeps every lower-priority
    security task schedulable ([R_j <= T_j^max]); then refresh the
    lower-priority response times and continue.

    Invariant (why Algorithm 2 may seed its feasible set with
    [T_s^max]): when task [s] is processed, the previous search
    guaranteed all of [lp(s)] schedulable with the now-fixed
    higher-priority periods and everything else at its bound, so the
    candidate [T_s = T_s^max] is always feasible. *)

type time = Rtsched.Task.time

type assignment = {
  sec : Rtsched.Task.sec_task;
  period : time;  (** the selected period [T_s^*] *)
  resp : time;  (** WCRT under the final period vector, [<= period] *)
}

type result =
  | Schedulable of assignment list  (** in priority order, highest first *)
  | Unschedulable
      (** some security task misses [T_s^max] even with every period
          at its bound (Algorithm 1, line 2) *)

val select :
  ?policy:Analysis.carry_in_policy -> ?hints:time array ->
  ?obs:Hydra_obs.t -> Analysis.system -> Rtsched.Task.sec_task array ->
  result
(** Runs Algorithm 1 on the security tasks (any order; they are sorted
    by priority internally).

    The search is copy-free and incremental: no per-probe copies (a
    scratch row committed only on feasible probes, and the period and
    scratch rows read in place as the analysis' hp view), and
    warm-started fixed points (the previous feasible probe's responses
    are valid lower bounds — feasible candidates decrease and
    interference is monotone in hp periods). Results are
    {b bit-identical} to the seed implementation kept as a test-only
    oracle ([test/oracle/naive_selection.ml]; equivalence-gated in
    [test/test_analysis.ml], design and proof sketches in
    doc/PERFORMANCE.md). Without [hints] the Algorithm 2 probe
    sequence is the seed's binary search.

    [hints] supplies per-task starting points for the Algorithm 2
    search, indexed by [sec_id] ([0] or out-of-range: no hint) —
    typically the periods of a previous selection on a
    nearby system. Feasibility is monotone in the candidate period, so
    the minimum feasible period is a threshold: a hint only changes
    the {e probe order} (exponential search around the hint instead of
    binary search over the whole [\[R_s, T_s^max\]] range), never the
    result, and any value is sound. Probes drop from O(log range) to
    O(log distance-moved) per task — O(1) when the solution did not
    move. Note the probe-order change means the search counters (and
    the exact probe sequence) differ from the plain binary search when
    [hints] is given.

    [obs] counts the Algorithm 2 probes
    ([period_selection.search.steps], plus the per-task
    [period_selection.search.steps_per_task] distribution) and the
    schedulable/unschedulable outcome tallies, and receives the
    analysis work of the selection once, when it returns: what
    [sys]'s memo tallied meanwhile ({!Analysis.record_work}), so a
    second selection on the same system adds only its own work
    (doc/OBSERVABILITY.md). *)

val period_vector : assignment list -> n_sec:int -> time array
(** Periods re-indexed by [sec_id] (length [n_sec]). *)

val resp_vector : assignment list -> n_sec:int -> time array
(** Response times re-indexed by [sec_id]. *)
