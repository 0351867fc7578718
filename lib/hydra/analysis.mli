(** HYDRA-C worst-case response-time analysis for semi-partitioned
    security tasks (paper Sec. 4.1-4.4).

    The job under analysis belongs to a security task that may run on
    any core but only below every RT task and below the
    higher-priority security tasks. Its response time is the least
    fixed point of Eq. 7,
    [x = floor(Omega(x) / M) + C_s], where [Omega] (Eq. 6) adds
    {ul
    {- per-core RT interference via the synchronous-release workload
       bound (Lemma 1, Eqs. 2-3) — RT tasks are pinned, so every core
       contributes independently;}
    {- non-carry-in interference of every higher-priority security
       task (Eq. 2, 5);}
    {- carry-in increments (Eq. 4) for at most [M - 1] of them
       (Lemma 2).}}

    Which tasks carry in is unknown, so Eq. 8 maximizes over all
    admissible carry-in sets. {!Exhaustive} implements Eq. 8 literally
    (exponential in [min (M-1, |hp|)]); {!Top_delta} is the standard
    Guan-style polynomial upper bound that, at every fixed-point
    iterate, grants carry-in to the [M - 1] tasks with the largest
    interference increment. [Top_delta] dominates every individual
    carry-in choice, hence is a safe upper bound on the Eq. 8 value
    (property-tested in [test/test_analysis.ml]).

    Both policies avoid redundant work: a per-system RT-workload
    cache, branch-and-bound carry-in enumeration for [Exhaustive], and
    warm-started fixed points. Results are bit-identical to the seed
    reference implementation, which lives on as a test-only oracle
    ([test/oracle/naive_analysis.ml]) — the design and soundness
    arguments are in doc/PERFORMANCE.md, the equivalence gate in
    [test/test_analysis.ml]. *)

type time = Rtsched.Task.time

type cache
(** Per-system memo of the raw per-core RT workload vector per window
    (the [x -> W_m(x)] table behind [analysis.cache.{hit,miss}]).
    Mutable but observationally pure: entries are a function of the
    frozen RT partition and the window only. *)

val fresh_cache : unit -> cache
(** An empty cache — needed when building a {!system} literally rather
    than through {!make_system}. *)

type cache_stats = {
  cs_entries : int;  (** memoized windows currently held *)
  cs_capacity : int;  (** entry bound; [0] = unbounded *)
  cs_hits : int;
  cs_misses : int;
  cs_evictions : int;  (** flush-on-full resets performed *)
  cs_refreshes : int;  (** per-core columns rewritten by {!refresh_rt_cores} *)
}
(** Hygiene counters of one system's workload cache — the per-system
    view behind the global [analysis.cache.{hit,miss}] registry
    counters (a long-lived daemon holds many systems on one
    registry; doc/SERVER.md). *)

type system = {
  n_cores : int;
  rt_cores : Rtsched.Task.rt_task list array;
      (** RT tasks pinned to each core, index = core *)
  cache : cache;
      (** RT-workload memo. {b Not} domain-safe: a [system] value must
          not be shared across domains (the parallel sweep builds one
          per taskset inside the worker, so this holds by
          construction — doc/PARALLELISM.md). *)
}
(** The fixed, partitioned RT side of the platform. *)

type hp_sec = {
  hp_task : Rtsched.Task.sec_task;
  hp_period : time;  (** period already chosen for this task *)
  hp_resp : time;  (** its WCRT under that period *)
}
(** A higher-priority security task whose period and response time are
    already known (Algorithm 1 processes priorities top-down, so this
    is always available). *)

type carry_in_policy =
  | Top_delta  (** polynomial Guan-style bound — the default *)
  | Exhaustive  (** literal Eq. 8 maximum over carry-in subsets *)

val make_system :
  Rtsched.Task.taskset -> assignment:int array -> system
(** Builds the per-core RT view from a partitioning assignment (with a
    fresh, empty workload cache). *)

val cache_stats : system -> cache_stats
(** Current hygiene counters of this system's workload cache. *)

val set_cache_capacity : system -> int -> unit
(** Bound the cache to at most [capacity] memoized windows ([<= 0]
    restores the unbounded default). Enforcement is flush-on-full: the
    insert that would exceed the bound resets the whole table first — a
    deterministic policy (no hash-order victim selection), so bounded
    and unbounded runs still compute bit-identical results, only the
    amount of recomputation differs. Lowering the capacity below the
    current entry count flushes immediately. A long-lived daemon sets
    this so resident tenants cannot grow their caches without limit
    (doc/SERVER.md; the bound is unit-tested in
    test/test_analysis.ml). *)

val refresh_rt_cores :
  system -> Rtsched.Task.rt_task list array -> changed:bool array ->
  system
(** [refresh_rt_cores sys new_cores ~changed] is a system with the RT
    partition replaced by [new_cores], {b keeping} the workload cache:
    for every memoized window, only the columns of cores flagged in
    [changed] are recomputed (counted in [cs_refreshes]); unchanged
    cores' workloads are reused as-is. The caller guarantees that
    [new_cores.(m)] equals [sys]'s core [m] wherever
    [changed.(m) = false]. This is the incremental-reconfiguration
    entry point of the admission-control server: an RT task arriving
    on (or leaving) one core invalidates one column, not the whole
    cache (doc/SERVER.md). The returned system shares the cache (and
    its single-domain ownership rules) with [sys].
    @raise Invalid_argument if either array's length differs from
    [sys.n_cores] — a core-count change is structural; use
    {!make_system}. *)

val rt_interference : system -> job_wcet:time -> time -> time
(** Total RT interference term of Eq. 6 for a window of length [x],
    computed without the workload cache. It is the RT term of
    {!response_time_fixed_subset} and of the literal Eq. 8 enumeration
    that [Exhaustive] falls back to when the top-delta bound diverges;
    {!response_time} otherwise computes the same value through the
    cache. *)

val response_time :
  ?policy:carry_in_policy -> ?warm:time -> ?obs:Hydra_obs.t -> system ->
  hp:hp_sec list -> wcet:time -> limit:time -> time option
(** [response_time sys ~hp ~wcet ~limit] is the WCRT of a security job
    of WCET [wcet] below the given higher-priority security tasks, or
    [None] if the fixed point exceeds [limit] (Sec. 4.4 stops at
    [T_s^max] since the task is then trivially unschedulable).

    RT workloads are cached per system, and [Exhaustive] runs a
    branch-and-bound enumeration (delta-negative tasks dropped from
    carry-in candidacy, dominated subsets skipped against the
    top-delta upper bound, id bitmasks instead of list membership).
    The returned value — and the [None] verdict — are
    {b bit-identical} to the reference analysis in
    [test/oracle/naive_analysis.ml] for both policies
    (equivalence-gated in [test/test_analysis.ml]; design in
    doc/PERFORMANCE.md).

    [warm] (default [0]) is a {b caller-guaranteed lower bound} on
    the true response time — e.g. the response under a
    previously analyzed, larger, period vector (interference is
    monotone in hp periods). The fixed point starts there instead of
    at [wcet]; passing a value above the true response is unsound.

    [obs] records the Eq. 7/8 instrumentation:
    [analysis.fixpoint.iterations] plus converged/diverged tallies,
    [analysis.carry_in.subsets] (Exhaustive: subsets enumerated),
    the [analysis.carry_in.set_size] distribution,
    [analysis.cache.{hit,miss}] and
    [analysis.prune.{carry_in_dropped,subsets_skipped}]
    (doc/OBSERVABILITY.md). *)

val response_time_fixed_subset :
  ?obs:Hydra_obs.t -> system -> hp:hp_sec list ->
  carry_in_ids:int list -> wcet:time -> limit:time -> time option
(** Eq. 7 under one {b fixed} carry-in set (tasks named by [sec_id]):
    one term of the Eq. 8 maximum. Exposed so tests can check that
    [Top_delta] upper-bounds every admissible subset, and so the test
    oracle can state [Exhaustive] literally as the subset maximum. *)

val carry_in_subsets : 'a list -> max_size:int -> 'a list list
(** All sublists of size [<= max_size] (order-preserving); exposed for
    the Eq. 8 tests and the X1 ablation. Generation is linear in the
    output size (sizes are threaded, not recomputed — see
    [test/test_analysis.ml] for the count law). *)
