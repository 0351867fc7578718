(** The HYDRA baseline (Hasan et al., DATE 2018) — the state of the art
    this paper compares against (Sec. 5.1.2, 5.2.3).

    HYDRA statically partitions security tasks: walking them from
    highest to lowest priority, each task is placed on the core that
    gives it the maximum monitoring frequency, i.e. the smallest
    per-core response time (computed with the exact uniprocessor TDA
    against that core's RT tasks and previously placed security
    tasks), and its period is set to that response time. Because every
    previously placed task has higher priority, placing a new task
    never disturbs them — but the greedy period minimization of
    high-priority tasks starves low-priority ones, which is exactly
    the weakness HYDRA-C addresses.

    With [minimize = false] this module implements HYDRA-TMax: same
    best-fit allocation, but every period stays at [T_s^max]. *)

type time = Rtsched.Task.time

type alloc = {
  sec : Rtsched.Task.sec_task;
  core : int;  (** core the task is pinned to *)
  period : time;  (** selected period ([resp] if minimizing, else bound) *)
  resp : time;  (** per-core WCRT under the final configuration *)
}

type result =
  | Schedulable of alloc list  (** in priority order, highest first *)
  | Unschedulable  (** some task fits on no core within its bound *)

val allocate :
  ?obs:Hydra_obs.t -> minimize:bool -> Analysis.system ->
  Rtsched.Task.sec_task array -> result
(** [allocate ~minimize sys secs] runs the greedy allocation, ties
    going to the lowest core index. [minimize = true] is HYDRA: each
    task goes to the feasible core giving the smallest response time,
    the highest achievable monitoring frequency. [false] is
    HYDRA-TMax: with periods pinned at the bounds that criterion
    degenerates (every feasible core yields the same period), so each
    task goes to the feasible core with the highest security-task
    utilization so far (classic bin-packing best-fit). *)

val allocate_coordinated :
  ?obs:Hydra_obs.t -> Analysis.system -> Rtsched.Task.sec_task array ->
  result
(** HYDRA-coordinated — a charitable reading of the DATE'18 baseline
    used by the X5 ablation: first allocate every task with its period
    at the bound (HYDRA-TMax's best-fit, {!allocate}
    [~minimize:false]), then minimize periods {e per core} with the
    Algorithm-1 discipline (highest priority first, constrained by
    every lower-priority task on the same core staying schedulable).
    Unlike {!allocate} [~minimize:true], the greedy period of a
    high-priority task can no longer starve its core-mates, so
    acceptance equals HYDRA-TMax's by construction while the periods
    are still adapted. *)

val period_vector : alloc list -> n_sec:int -> time array
(** Periods re-indexed by [sec_id]. *)

val core_vector : alloc list -> n_sec:int -> int array
(** Core assignment re-indexed by [sec_id]. *)
