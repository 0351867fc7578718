(** Global fixed-priority multicore response-time analysis
    (Guan et al., RTSS'09 — references 37-39 of the paper).

    Used for the GLOBAL-TMax baseline of Sec. 5.2.3, where {e all}
    tasks (RT and security) migrate freely. The busy period of a job
    can only extend while all [M] cores run higher-priority work, so at
    most [M-1] higher-priority tasks carry in (Lemma 2); the response
    time is the least fixed point of
    [x = floor(Omega(x)/M) + C] where [Omega] sums the non-carry-in
    interference of every higher-priority task plus the [M-1] largest
    carry-in increments. That bound and the fixed point are {!Guan}'s,
    the same kernel the HYDRA-C analysis runs. *)

type time = Task.time

type gtask = {
  g_name : string;
  g_wcet : time;
  g_period : time;
  g_deadline : time;  (** [<= period] *)
}
(** A task in the global system; the list position defines priority
    (head = highest). *)

val response_times :
  runs:Guan.runs -> n_cores:int -> gtask list -> time option list
(** Response time of each task in the priority-ordered list (highest
    first), bounded by its deadline. A task whose fixed point exceeds
    its deadline gets [None]; tasks below an unschedulable task also
    get [None], unanalyzed, because their carry-in bound needs every
    higher-priority response time. [runs] is the caller's kernel
    scratch for [n_cores]: its {!Guan.tally} gains one verdict per
    analyzed task (so at most one [diverged]) and their iterations. *)

val of_taskset :
  Task.taskset -> sec_period:(Task.sec_task -> time) -> gtask list
(** Flattens a taskset into the priority-ordered global task list: RT
    tasks (by priority) above security tasks (by priority); each
    security task gets the period [sec_period s] and an implicit
    deadline equal to that period. *)
