(** The Guan-style carry-in bound (Guan et al., RTSS'09 — references
    37-39 of the paper) and the Eq. 7 fixed point, shared by the
    HYDRA-C analysis ([Hydra.Analysis], Eqs. 6-8 with Lemma 2) and the
    global RTA of the GLOBAL-TMax baseline ({!Rta_global}).

    Both bound the interference of the higher-priority ("hp") tasks
    on a window of length [x] the same way: every hp task contributes
    its non-carry-in interference (Eqs. 2-3/5), and at most [M - 1] of
    them (Lemma 2) add their carry-in increment
    [delta_i(x) = I_ci(x) - I_nc(x)] (Eq. 4). The hp tasks are held in
    flat arrays, filled once per response-time call, and the largest
    increments are selected in a caller-owned buffer, so evaluating the
    bound allocates nothing. *)

type time = Task.time

type hp = {
  wcet : time array;
  period : time array;
  resp : time array;  (** worst-case response time, for Eq. 4 *)
}
(** hp tasks by index, highest priority first. The functions below
    read only the first [n] entries, so one value can hold a growing
    prefix (as {!Rta_global.response_times} fills it task by task). *)

val make : int -> hp
(** [make n] has room for [n] hp tasks (zero-filled). *)

val nc_total : hp -> n:int -> job_wcet:time -> time -> time
(** [nc_total hp ~n ~job_wcet x] sums the non-carry-in interference of
    hp tasks [0 .. n-1] on a window of length [x] for a job of WCET
    [job_wcet]. *)

val delta : hp -> job_wcet:time -> int -> time -> time
(** [delta hp ~job_wcet i x] is hp task [i]'s carry-in increment
    [I_ci(x) - I_nc(x)]. It can be negative. *)

val bound : hp -> n:int -> top:time array -> job_wcet:time -> time -> time
(** [bound hp ~n ~top ~job_wcet x] is the Guan bound [Omega(x)]:
    [nc_total hp ~n ~job_wcet x] plus the [Array.length top] largest
    positive increments among tasks [0 .. n-1]. [top] is scratch space
    of length [M - 1]; its contents on entry are ignored. *)

val fixpoint :
  ?start:time -> iters:int ref -> n_cores:int -> wcet:time -> limit:time ->
  (time -> time) -> time option
(** [fixpoint ~iters ~n_cores ~wcet ~limit omega] is the least fixed
    point of Eq. 7, [x = floor(omega x / n_cores) + wcet], iterated
    from [max wcet start] ([start] defaults to [0]), or [None] once an
    iterate exceeds [limit]. [omega] must be monotone. Any start in
    [[wcet, lfp]] gives the same result and verdict as the cold start
    (doc/PERFORMANCE.md §3). Each iteration increments [iters]. *)
