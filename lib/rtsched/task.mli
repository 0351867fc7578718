(** Task and platform model.

    All times are integer clock ticks (the paper assumes every event
    happens at integer tick precision; we use 1 tick = 1 ms in the
    experiments). Priorities are integers where a {e smaller} value
    means a {e higher} priority. Real-time (RT) tasks always occupy a
    strictly higher priority band than security tasks — the framework's
    fundamental invariant (security tasks execute opportunistically in
    slack only). *)

type time = int
(** A duration or instant in integer clock ticks. *)

type rt_task = {
  rt_id : int;  (** unique index within the taskset *)
  rt_name : string;
  rt_wcet : time;  (** worst-case execution time [C_r > 0] *)
  rt_period : time;  (** minimum inter-arrival time [T_r > 0] *)
  rt_deadline : time;  (** constrained relative deadline [D_r <= T_r] *)
  rt_prio : int;  (** priority, unique among RT tasks; smaller = higher *)
}
(** A periodic/sporadic real-time task [(C_r, T_r, D_r)] (Sec. 2.1). *)

type sec_task = {
  sec_id : int;  (** unique index within the security taskset *)
  sec_name : string;
  sec_wcet : time;  (** worst-case execution time [C_s > 0] *)
  sec_period_max : time;
      (** designer-provided period upper bound [T_s^max]; monitoring is
          deemed ineffective beyond this inter-invocation time *)
  sec_prio : int;  (** priority, unique among security tasks *)
}
(** A security monitoring task [(C_s, T_s, T_s^max)] with implicit
    deadline and an initially unknown period (Sec. 3). *)

type taskset = {
  n_cores : int;  (** number of identical cores [M >= 1] *)
  rt : rt_task array;  (** RT tasks, any order *)
  sec : sec_task array;  (** security tasks, any order *)
}
(** A complete system: platform plus both task classes. *)

exception Invalid_task of string
(** Raised by the [make_*] smart constructors on parameter violations. *)

val max_time : time
(** [2^40], the largest period, deadline or [T_s^max] (hence WCET) the
    constructors accept. With {!max_tasks} and {!max_cores} it keeps
    every sum of Eqs. 1 and 6-8 below [2^61], [Hydra.Sensitivity]'s
    10x WCETs included (doc/ANALYSIS.md, "Numeric range"). *)

val max_tasks : int
(** 1024, the most tasks (RT and security together) of a taskset. *)

val max_cores : int
(** 1024, the largest core count of a taskset; the workload memo holds
    256 windows of [M] workloads (2 MiB here). *)

val make_rt :
  ?name:string -> ?deadline:time -> id:int -> prio:int -> wcet:time ->
  period:time -> unit -> rt_task
(** [make_rt ~id ~prio ~wcet ~period ()] builds an RT task, checking
    [wcet >= 1], [wcet <= deadline <= period] and
    [period <= max_time]. [deadline] defaults to [period] (implicit
    deadline). @raise Invalid_task on violation, naming the task. *)

val make_sec :
  ?name:string -> id:int -> prio:int -> wcet:time -> period_max:time ->
  unit -> sec_task
(** [make_sec ~id ~prio ~wcet ~period_max ()] builds a security task,
    checking [wcet >= 1] and [wcet <= period_max <= max_time].
    @raise Invalid_task on violation, naming the task. *)

val check_task_count : int -> unit
(** [check_task_count n] is {!make_taskset}'s task-count check: it
    raises [Invalid_task] if [n] is above {!max_tasks}. *)

val make_taskset :
  n_cores:int -> rt:rt_task list -> sec:sec_task list -> taskset
(** Builds a taskset, checking [1 <= n_cores <= max_cores], at most
    {!max_tasks} tasks ({!check_task_count}), and uniqueness of ids and
    of priorities within each class. @raise Invalid_task on
    violation. *)

val rt_utilization : rt_task -> float
(** [C_r / T_r]. *)

val sec_utilization_at : sec_task -> time -> float
(** [sec_utilization_at s t] is [C_s / t] — the utilization the task
    would have if assigned period [t]. *)

val sec_min_utilization : sec_task -> float
(** Utilization at the maximum period, [C_s / T_s^max] — the least
    utilization the task can ever impose. *)

val total_rt_utilization : taskset -> float
(** Sum of RT task utilizations. *)

val total_min_utilization : taskset -> float
(** The paper's [U]: RT utilization plus security utilization with all
    periods at [T_s^max] (Sec. 5.2.2). *)

val normalized_utilization : taskset -> float
(** [U / M] — x-axis of Figs. 6 and 7. *)

val period_bounds : sec_task array -> time array
(** [T_s^max] of every security task, indexed by [sec_id]: the period
    vector of a deployment at the bounds, and the reference of the
    distance metrics. *)

val sort_rt_by_priority : rt_task array -> rt_task array
(** Fresh array sorted by ascending priority value (highest first). *)

val sort_sec_by_priority : sec_task array -> sec_task array
(** Fresh array sorted by ascending priority value (highest first). *)

val assign_rate_monotonic : rt_task list -> rt_task list
(** Reassigns RT priorities in rate-monotonic order (shorter period =
    higher priority), breaking period ties by id. Returns fresh tasks
    numbered with priorities [0, 1, ...]. *)

val pp_rt : Format.formatter -> rt_task -> unit
val pp_sec : Format.formatter -> sec_task -> unit
val pp_taskset : Format.formatter -> taskset -> unit

val show_rt : rt_task -> string
