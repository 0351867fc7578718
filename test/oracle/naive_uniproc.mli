(** Reference uniprocessor RTA (paper Eq. 1): the list-based
    time-demand iteration that {!Rtsched.Rta_uniproc.response_time} is
    differential-tested against ([test/test_rtsched.ml]), and the
    per-core and per-partition schedulability checks the tests validate
    partitions with, independent of the partitioner they check. *)

type time = Rtsched.Task.time

type hp_task = { hp_wcet : time; hp_period : time }
(** A higher-priority interferer: only its WCET and period matter. *)

val response_time :
  ?start:time -> tally:Rtsched.Guan.tally -> hp:hp_task list -> wcet:time ->
  limit:time -> unit -> time option
(** [response_time ~tally ~hp ~wcet ~limit ()] runs the fixed-point
    iteration [x <- wcet + sum_i ceil(x/T_i)*C_i] from [x = start]
    (default [wcet]); [Some r] for the fixed point [r <= limit] it
    stops at, or [None] once an iterate exceeds [limit]. It adds one
    iteration per demand evaluation and its verdict to [tally]. *)

val rt_response_time :
  tally:Rtsched.Guan.tally -> core:Rtsched.Task.rt_task list ->
  Rtsched.Task.rt_task -> time option
(** Response time of an RT task among the RT tasks of its core
    ([core] may or may not include the task itself; it is excluded by
    id). Bounded by the task's deadline. Counts into [tally]. *)

val core_rt_schedulable : Rtsched.Task.rt_task list -> bool
(** Whether every RT task pinned to this core meets its deadline. *)

val partitioned_rt_schedulable :
  Rtsched.Task.taskset -> assignment:int array -> bool
(** Whether all RT tasks of the taskset meet their deadlines under the
    given core [assignment] ([assignment.(i)] is the core of
    [ts.rt.(i)]). *)
