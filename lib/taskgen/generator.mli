(** Synthetic taskset generation per the paper's Table 3.

    Tasksets are grouped by base utilization: group [i] (0..9) draws
    its total minimum utilization [U] uniformly from
    [\[(0.01 + 0.1 i) M, (0.1 + 0.1 i) M\]]. Counts, periods and the
    security-utilization share follow Table 3; per-task utilizations
    come from {!Randfixedsum.sample}; periods are log-uniform; RT
    priorities are rate-monotonic; RT tasks are partitioned with
    best-fit and only RT-schedulable tasksets are kept (tasksets whose
    RT part cannot be partitioned are trivially unschedulable and are
    regenerated, as in Sec. 5.2.1). *)

type config = {
  n_cores : int;  (** M; the paper uses 2 and 4 *)
  rt_count : int * int;  (** inclusive range, default [3M, 10M] *)
  sec_count : int * int;  (** inclusive range, default [2M, 5M] *)
  rt_period : int * int;  (** ticks (ms), default [10, 1000] *)
  sec_period_max : int * int;  (** ticks (ms), default [1500, 3000] *)
  sec_util_share : float * float;
      (** fraction of total utilization given to security tasks at
          [T_s^max]; the paper requires "at least 30%", we draw
          uniformly from this range (default [0.30, 0.50]) *)
  util_groups : int;  (** number of base-utilization groups, default 10 *)
  ticks_per_ms : int;
      (** clock resolution: periods are drawn in milliseconds (the
          Table-3 ranges) and scaled to ticks. WCETs are rounded to at
          least one tick, so a coarse resolution inflates tiny
          utilizations; the default of 10 (0.1 ms ticks) keeps the
          total rounding error below ~1% of a core. *)
  partition_heuristic : Rtsched.Partition.heuristic;  (** default best-fit *)
  max_attempts : int;
      (** resampling budget per taskset before giving up (high groups
          can fail RT partitioning), default 200 *)
}

val default_config : n_cores:int -> config

val group_bounds : config -> int -> float * float
(** [group_bounds cfg i] is the absolute total-utilization interval of
    group [i] (0-based): [((0.01 + 0.1 i) M, (0.1 + 0.1 i) M)]. *)

type generated = {
  taskset : Rtsched.Task.taskset;
  rt_assignment : int array;  (** best-fit core of each RT task *)
  target_utilization : float;  (** the [U] the generator aimed for *)
}

val generate : config -> Rng.t -> group:int -> generated option
(** One taskset of utilization group [group]; [None] if no
    RT-schedulable taskset was found within [max_attempts]. *)
