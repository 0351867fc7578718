(** Uniprocessor fixed-priority response-time analysis (paper Eq. 1).

    Exact time-demand analysis for tasks statically bound to one core:
    the smallest [x] with [x = C + sum_i ceil(x/T_i)*C_i] over the
    higher-priority tasks [i] on the same core. {!Partition} runs it to
    place RT tasks, and the HYDRA (DATE'18) baseline
    ([Hydra.Baseline_hydra]) to place security tasks on cores.

    The interferers are held in flat arrays that the caller fills in
    place, as {!Guan.hp} holds the global analyses', so that a fixed
    point allocates nothing. The tests check it against a list-based
    reference ([test/oracle/naive_uniproc.ml]). *)

type time = Task.time

type hp = {
  wcet : time array;  (** [C_i] *)
  period : time array;  (** [T_i] *)
}
(** Higher-priority interferers by index. {!response_time} reads only
    the first [n] entries and does not depend on their order. *)

val make : int -> hp
(** [make n] has room for [n] interferers (zero-filled). *)

val response_time :
  tally:Guan.tally -> hp -> n:int -> job_wcet:time -> start:time ->
  limit:time -> time
(** [response_time ~tally hp ~n ~job_wcet ~start ~limit] is the least
    fixed point [r] of [x = job_wcet + sum_{i < n} ceil(x/T_i)*C_i] if
    [r <= limit], and otherwise the first iterate past [limit] (so a
    result above [limit] means "misses"). It iterates
    [x <- job_wcet + sum_i ceil(x/T_i)*C_i] from [x = start], which
    must lie in [[job_wcet, r]]: from [start = job_wcet] (a cold start)
    this is the classic iteration, and from any start in that range
    the iterates rise to the same fixed point, or past [limit], as the
    cold ones (doc/PERFORMANCE.md, "Eq. 1 on arrays, incremental
    best-fit"). Each demand evaluation counts one iteration in
    [tally], and the call one verdict: converged if the result is at
    most [limit], diverged otherwise (a start past [limit] included,
    with no iteration). Allocates nothing. *)
