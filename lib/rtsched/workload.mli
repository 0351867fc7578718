(** Workload and interference bounds (paper Sec. 4.2-4.3, Eqs. 2-5).

    A {e workload} [W_i(x)] is the maximum accumulated execution of a
    task inside any window of length [x]; the {e interference} a task
    (or a group of tasks pinned to one core) causes on the job under
    analysis is its workload clamped to [x - C_s + 1] (the [+1] makes
    the response-time fixed-point iteration start correctly from
    [x = C_s], see the discussion below Eq. 3). *)

type time = Task.time

val non_carry_in : wcet:time -> period:time -> time -> time
(** [non_carry_in ~wcet ~period x] is Eq. 2:
    [floor(x/T)*C + min(x mod T, C)] — the synchronous-release workload
    bound, used both for partitioned RT tasks (Lemma 1) and for
    non-carry-in security tasks. Returns [0] for [x <= 0]. *)

val carry_in : wcet:time -> period:time -> resp:time -> time -> time
(** [carry_in ~wcet ~period ~resp x] is Eq. 4: the workload bound for a
    carry-in task whose worst-case response time is [resp]:
    [W_nc(max(x - xbar, 0)) + min(x, C - 1)] with
    [xbar = C - 1 + T - R]. Returns [0] for [x <= 0]. *)

val interference : job_wcet:time -> window:time -> time -> time
(** [interference ~job_wcet ~window w] clamps a workload [w] to
    [window - job_wcet + 1] (Eqs. 3 and 5); the clamp never goes below
    zero. [job_wcet] is the WCET [C_s] of the job under analysis. *)

val rt_core_workload : Task.rt_task list -> time -> time
(** Total synchronous-release workload of the RT tasks partitioned on
    one core over a window of length [x] (the summand of Eq. 3). *)

val rt_core_interference :
  job_wcet:time -> Task.rt_task list -> time -> time
(** Eq. 3: interference of one core's RT partition on a security job of
    WCET [job_wcet] in a window of length [x]. *)

val request_bound : wcet:time -> period:time -> time -> time
(** Classic request-bound function [ceil(x/T)*C] used by the
    uniprocessor time-demand analysis (Eq. 1). Returns [0] for
    [x <= 0]. *)
