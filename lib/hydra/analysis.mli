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
    admissible carry-in sets. {!Top_delta} is the standard Guan-style
    polynomial upper bound that, at every fixed-point iterate, grants
    carry-in to the [M - 1] tasks with the largest interference
    increment; it dominates every individual carry-in choice, hence is
    a safe upper bound on the Eq. 8 value. {!Exhaustive} computes the
    Eq. 8 maximum itself (exponential in [min (M-1, |hp|)]). The Guan
    bound and the Eq. 7 loop are {!Rtsched.Guan}'s, the kernel the
    GLOBAL-TMax baseline's global RTA runs too; this module adds the
    cached per-core RT term and the Eq. 8 enumeration.

    Both policies avoid redundant work: a per-system RT-workload
    cache, a pruned carry-in enumeration for [Exhaustive], and
    warm-started fixed points that jump past windows which cannot be
    fixed points ({!Rtsched.Guan.fixpoint}). Results are bit-identical
    to the seed reference implementation, which lives on as a test-only
    oracle ([test/oracle/naive_analysis.ml], with the literal Eq. 8
    subsets and the uncached RT term) — the design and soundness
    arguments are in doc/PERFORMANCE.md, the equivalence gate in
    [test/test_analysis.ml]. *)

type time = Rtsched.Task.time

type cache
(** Per-system memo of the raw per-core RT workloads per window (the
    [x -> W_m(x)] table behind [analysis.cache.{hit,miss,evicted}]),
    and the account of the analysis work run on it ({!cache_stats}).
    It is direct-mapped: 256 slots (tests may pick another power of
    two, {!fresh_cache}), window [x] in slot [x land (slots - 1)],
    each slot holding one window and its [M] workloads in flat [int]
    arrays, [slots * (M + 1)] words in all (10 KiB at [M = 4]). A
    lookup or a store allocates nothing; a window that lands on a slot
    held by another window overwrites it (an eviction). Mutable but
    observationally pure: every entry is a function of the RT
    partition and the window only, so a hit returns exactly what a
    miss computes. It also holds the {!Rtsched.Guan} kernel's scratch
    (the run buffer and the top-[(M - 1)] increments), built once, and
    the [Exhaustive] enumerator's (its chosen set of [M - 1] slots, and
    candidate and increment buffers grown to the largest hp count
    seen), so that {!response_time} allocates no buffer. *)

val fresh_cache : ?slots:int -> int -> cache
(** [fresh_cache n_cores] is an empty cache for [n_cores] cores —
    needed when building a {!system} literally rather than through
    {!make_system}. [slots] (default 256) exists for the collision
    tests: the slot count changes only how often windows collide,
    never a result.
    @raise Invalid_argument if [slots] is not a power of two or
    [n_cores < 1]. *)

type cache_stats = {
  cs_entries : int;  (** occupied slots *)
  cs_capacity : int;  (** slot count (256) *)
  cs_hits : int;
  cs_misses : int;
  cs_evictions : int;
      (** misses that overwrote a slot held by another window *)
  cs_refreshes : int;  (** per-core columns rewritten by {!refresh_rt_cores} *)
  cs_iterations : int;  (** [Omega] evaluations, jumps included *)
  cs_converged : int;  (** fixed points that converged *)
  cs_diverged : int;  (** fixed points that passed [limit] *)
  cs_subsets : int;  (** [Exhaustive]: carry-in sets visited *)
  cs_skipped : int;  (** [Exhaustive]: sets skipped without a fixed point *)
  cs_dropped : int;  (** [Exhaustive]: hp tasks dropped as candidates *)
}
(** The tallies of one system's memo since it was built: its hygiene
    counters and the work of every {!response_time} call on it, the
    per-system view behind the registry's [analysis.*] counters that
    {!record_work} feeds (a daemon holds many systems on one registry;
    doc/SERVER.md). *)

type system = {
  n_cores : int;
  rt_cores : Rtsched.Task.rt_task list array;
      (** RT tasks pinned to each core, index = core *)
  cache : cache;
      (** RT-workload memo and kernel scratch. {b Not} domain-safe: a
          [system] value must not be shared across domains (the
          parallel sweep builds one per taskset inside the worker, so
          this holds by construction — doc/PARALLELISM.md). *)
}
(** The fixed, partitioned RT side of the platform. *)

type carry_in_policy =
  | Top_delta  (** polynomial Guan-style bound — the default *)
  | Exhaustive  (** literal Eq. 8 maximum over carry-in subsets *)

val make_system :
  Rtsched.Task.taskset -> assignment:int array -> system
(** Builds the per-core RT view from a partitioning assignment (with a
    fresh, empty workload cache). *)

val cache_stats : system -> cache_stats
(** Current tallies of this system's memo. Constant time. *)

val refresh_rt_cores :
  system -> Rtsched.Task.rt_task list array -> changed:bool array ->
  system
(** [refresh_rt_cores sys new_cores ~changed] is a system with the RT
    partition replaced by [new_cores], {b keeping} the workload cache:
    for every occupied slot, only the columns of cores flagged in
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

val response_time :
  ?policy:carry_in_policy -> ?warm:time -> system -> hp:Rtsched.Guan.hp ->
  n:int -> wcet:time -> limit:time -> time option
(** [response_time sys ~hp ~n ~wcet ~limit] is the WCRT of a security
    job of WCET [wcet] below the higher-priority security tasks held in
    entries [0 .. n-1] of [hp] (highest priority first: WCET, the
    period already chosen, and the WCRT under that period), or [None]
    if the fixed point exceeds [limit] (Sec. 4.4 stops at [T_s^max]
    since the task is then trivially unschedulable).

    [hp] is only read: [Period_selection.select] passes its own
    period and response arrays, filled in place as its search moves
    (doc/PERFORMANCE.md §3), so a call under either policy allocates
    nothing that grows with [n], once an [Exhaustive] call has grown
    the memo's buffers to [n].

    RT workloads are cached per system, and [Exhaustive] enumerates
    only the admissible carry-in sets — at most [M - 1] tasks, none of
    them one whose carry-in increment is never positive — skipping
    every set that the top-delta bound or a prefixed point at the
    running maximum proves cannot raise it. The returned value — and
    the [None] verdict — are {b bit-identical} to the reference
    analysis in [test/oracle/naive_analysis.ml] for both policies
    (equivalence-gated in [test/test_analysis.ml]; design in
    doc/PERFORMANCE.md).

    [warm] (default [0]) is a {b caller-guaranteed lower bound} on
    the true response time — e.g. the response under a
    previously analyzed, larger, period vector (interference is
    monotone in hp periods). The fixed point starts there instead of
    at [wcet]; passing a value above the true response is unsound.

    The call's work is tallied in the system's memo ({!cache_stats})
    only; {!record_work} reports it. *)

val record_work : Hydra_obs.t option -> since:cache_stats -> system -> unit
(** [record_work obs ~since sys] adds to [obs] what [sys]'s memo tallied
    since the reading [since] of {!cache_stats}: the
    [analysis.fixpoint.{iterations,converged,diverged}],
    [analysis.carry_in.subsets], [analysis.prune.{subsets_skipped,
    carry_in_dropped}] and [analysis.cache.{hit,miss,evicted}] counters
    (doc/OBSERVABILITY.md), each only if its tally grew.
    [Period_selection.select] reports each selection this way, once. *)

val record_rta : Hydra_obs.t option -> string -> Rtsched.Guan.tally -> unit
(** [record_rta obs prefix tally] adds [tally] to [obs] as
    [prefix.{iterations,converged,diverged}] (the baselines'
    [rta.uniproc] and [rta.global], doc/OBSERVABILITY.md): iterations
    once the tally holds a verdict, each verdict once it occurred, so a
    snapshot lists the counters a per-fixed-point recording would. *)
