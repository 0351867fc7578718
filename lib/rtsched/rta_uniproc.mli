(** Uniprocessor fixed-priority response-time analysis (paper Eq. 1).

    Exact time-demand analysis for tasks statically bound to one core:
    the smallest [x] with [x = C + sum_i ceil(x/T_i)*C_i] over
    higher-priority tasks [i] on the same core. Used (a) to validate
    that the partitioned RT tasks are schedulable, and (b) as the
    per-core analysis inside the HYDRA (DATE'18) baseline, where
    security tasks are pinned to cores. *)

type time = Task.time

type hp_task = { hp_wcet : time; hp_period : time }
(** A higher-priority interferer: only its WCET and period matter. *)

val response_time :
  tally:Guan.tally -> hp:hp_task list -> wcet:time -> limit:time -> unit ->
  time option
(** [response_time ~tally ~hp ~wcet ~limit ()] runs the fixed-point
    iteration starting at [x = wcet]; returns [Some r] for the least
    fixed point [r <= limit], or [None] if the iteration exceeds
    [limit] (the task is unschedulable with respect to that bound).
    It adds its iterations and its verdict to the caller's [tally]. *)

val rt_response_time :
  tally:Guan.tally -> core:Task.rt_task list -> Task.rt_task -> time option
(** Response time of an RT task among the RT tasks of its core
    ([core] may or may not include the task itself; it is excluded by
    id). Bounded by the task's deadline. Counts into [tally]. *)

val core_rt_schedulable : Task.rt_task list -> bool
(** Whether every RT task pinned to this core meets its deadline. *)

val partitioned_rt_schedulable : Task.taskset -> assignment:int array -> bool
(** Whether all RT tasks of the taskset meet their deadlines under the
    given core [assignment] ([assignment.(i)] is the core of
    [ts.rt.(i)]). *)
