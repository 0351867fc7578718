(** Analysis-vs-simulation cross-validation.

    For randomly generated tasksets that HYDRA-C declares schedulable,
    simulate the semi-partitioned schedule with the selected periods
    (synchronous release — the analysis' critical-instant pattern) and
    compare every security task's maximum observed response time
    against its analytical WCRT. Soundness demands
    [observed <= bound] everywhere; the gap distribution measures the
    analysis' pessimism (the quantity behind the Fig. 7a divergence
    discussed in EXPERIMENTS.md). RT tasks are additionally checked
    for deadline misses. *)

type task_check = {
  tc_name : string;
  tc_bound : int;  (** analytical WCRT *)
  tc_observed : int;  (** max simulated response *)
}

type result = {
  tasksets_checked : int;
  violations : task_check list;  (** observed > bound — must be empty *)
  rt_misses : int;  (** simulated RT deadline misses — must be 0 *)
  mean_tightness : float;
      (** mean of observed/bound over all checked security tasks;
          1.0 = exact analysis, lower = more pessimism *)
  min_tightness : float;
  tightness_permil_q : (int * int * int * int) option;
      (** (p50, p95, p99, max) of observed/bound in permil, read from a
          {!Hydra_obs.Histogram} over the same integer samples the
          [validation.tightness_permil] metric records; [None] when no
          security job completed *)
  checks : int;  (** individual task checks performed *)
}

val run :
  ?policy:Hydra.Analysis.carry_in_policy -> ?config:Taskgen.Generator.config ->
  ?horizon:int -> ?jobs:int -> ?obs:Hydra_obs.t -> n_cores:int ->
  tasksets:int -> seed:int -> unit -> result
(** Generates [tasksets] tasksets spread over the utilization groups
    and validates each schedulable one over [horizon] ticks (default
    100000). [jobs] (default {!Parallel.Pool.default_jobs}[ ()])
    simulates tasksets on that many domains; the result is identical
    for every [jobs] value (doc/PARALLELISM.md). [obs] wraps the run in
    a [validation.run] span and each taskset in a [validation.item]
    span, forwards to the analysis and simulator underneath, and
    samples every observed/bound ratio into the
    [validation.tightness_permil] histogram (doc/OBSERVABILITY.md). *)

val render : Format.formatter -> result -> unit
