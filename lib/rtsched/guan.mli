(** The Guan-style carry-in bound (Guan et al., RTSS'09 — references
    37-39 of the paper) and the Eq. 7 fixed point, shared by the
    HYDRA-C analysis ([Hydra.Analysis], Eqs. 6-8 with Lemma 2) and the
    global RTA of the GLOBAL-TMax baseline ({!Rta_global}).

    Both bound the interference of the higher-priority ("hp") tasks
    on a window of length [x] the same way: every hp task contributes
    its non-carry-in interference (Eqs. 2-3/5), and at most [M - 1] of
    them (Lemma 2) add their carry-in increment
    [delta_i(x) = I_ci(x) - I_nc(x)] (Eq. 4). The hp tasks are held in
    flat arrays that the caller fills in place, and the largest
    increments are selected in a caller-owned buffer, so evaluating the
    bound allocates nothing.

    The fixed point jumps: each term of [Omega] reports its {e run},
    how far past [x] it is sure to keep growing one for one, and
    {!fixpoint} skips every window that these runs prove cannot be a
    fixed point (doc/PERFORMANCE.md §2). *)

type time = Task.time

type hp = {
  wcet : time array;
  period : time array;
  resp : time array;  (** worst-case response time, for Eq. 4 *)
}
(** hp tasks by index, highest priority first. The functions below
    read only the first [n] entries, so one value can hold a growing
    prefix: {!Rta_global.response_times} fills it task by task, and
    [Hydra.Period_selection.select] updates its own in place as its
    search moves. *)

val make : int -> hp
(** [make n] has room for [n] hp tasks (zero-filled). *)

type tally = {
  mutable iterations : int;  (** fixed-point iterations *)
  mutable converged : int;  (** fixed points found within the limit *)
  mutable diverged : int;  (** fixed points that passed the limit *)
}
(** A caller-owned account of the fixed points run into it, one
    verdict each. {!fixpoint} counts into its buffer's, and
    {!Rta_uniproc} into the one its caller passes. The analyses record
    nothing else: a caller reports the counts, or the difference of two
    readings, once. *)

val make_tally : unit -> tally
(** An all-zero tally. *)

val count_verdict : tally -> 'a option -> unit
(** Counts one fixed point's verdict: [Some] converged, [None]
    diverged. *)

type runs
(** Caller-owned scratch for one [M]: the runs of the terms of
    [Omega] at the window last evaluated, and the {!tally} of every
    {!fixpoint} run on it. Only the [M - 1] largest runs and the sum
    of all of them are kept, which is all {!fixpoint}'s jump reads.
    Recording a run allocates nothing. *)

val runs : n_cores:int -> runs
(** [runs ~n_cores] is an empty buffer for [M = n_cores]. *)

val tally : runs -> tally
(** The buffer's own tally (not a copy). *)

val clamped : runs -> job_wcet:time -> time -> time -> time
(** [clamped runs ~job_wcet x w] is
    [Workload.interference ~job_wcet ~window:x w] for a raw workload
    [w >= 0], and records the clamped term's run: its slack
    [max 0 (w - (x - job_wcet + 1))] above the clamp. [Hydra.Analysis]
    adds each RT core's term of Eq. 6 this way. *)

val increments :
  hp -> n:int -> runs:runs -> job_wcet:time -> delta:time array -> time ->
  time
(** [increments hp ~n ~runs ~job_wcet ~delta x] is the non-carry-in
    interference [sum_i nc_i(x)] of hp tasks [0 .. n-1] on a window of
    length [x] for a job of WCET [job_wcet] (Eqs. 2 and 5), and sets
    [delta.(i)] to task [i]'s carry-in increment
    [delta_i(x) = ci_i(x) - nc_i(x)] (Eq. 4), which can be negative. It
    records no run; [runs] is only its scratch. Requires
    [x >= job_wcet >= 1]. *)

val bound :
  hp -> n:int -> top:time array -> runs:runs -> job_wcet:time -> time ->
  time
(** [bound hp ~n ~top ~runs ~job_wcet x] is the Guan bound [Omega(x)]:
    the non-carry-in interference of tasks [0 .. n-1] plus their
    [Array.length top] largest positive increments. [top] is scratch
    space of length [M - 1]; its contents on entry are ignored.
    Requires [x >= job_wcet >= 1].

    It adds to [runs] (made for the same [M]) one run per hp task, for
    the term that task contributes with the top set [S*(x)] held
    fixed: [nc_i] outside [S*], [ci_i] inside. [nc_i]'s raw workload
    runs [C_i - (x mod T_i)] while that job still executes; [ci_i]'s
    runs like [nc] in its body once [x >= xbar], plus [C_i - 1 - x]
    while [x < C_i - 1]. Each run also counts the term's slack above
    its clamp. *)

val set_bound :
  hp -> n:int -> set:int array -> size:int -> runs:runs ->
  job_wcet:time -> time -> time
(** [set_bound hp ~n ~set ~size ~runs ~job_wcet x] is the hp part of
    Eq. 8's [Omega_S(x)] for the carry-in set
    [S = set.(0 .. size-1)] (task indices, increasing):
    [sum_{i not in S} nc_i(x) + sum_{i in S} ci_i(x)], that is the sum
    of {!increments} plus each member's increment. It records the runs
    of these terms, as {!bound} does for its own. Requires
    [x >= job_wcet >= 1]. *)

val fixpoint :
  ?start:time -> runs:runs -> n_cores:int -> wcet:time -> limit:time ->
  (time -> time) -> time option
(** [fixpoint ~runs ~n_cores ~wcet ~limit omega] is the least
    fixed point of Eq. 7, [x = floor(omega x / n_cores) + wcet],
    searched from [max wcet start] ([start] defaults to [0]), or
    [None] once an iterate exceeds [limit]. [omega] must be monotone,
    and must record in [runs] (made for [n_cores]), through {!bound},
    {!set_bound} or {!clamped}, a run for each term it sums and no
    larger one; a term with no run recorded is sound, it only jumps
    less. [fixpoint] clears [runs] before each call of [omega].

    After a step that rises from [x], the next iterate is
    [max (F x) (x + d)], where [d] is the least [d] with
    [omega x + L(d) < n_cores * (x + d - wcet + 1)] and
    [L(d) = sum_t min(run_t, d)]: [omega x + L(d)] bounds
    [omega (x + d)] from below, so no window in [[x, x + d)] is a
    fixed point. Hence from any start in [[wcet, lfp]] the value and
    the verdict are those of the plain iteration
    [x <- floor(omega x / n_cores) + wcet] from [wcet]
    (doc/PERFORMANCE.md §§2-3); the number of iterations is not, and
    is never larger. Each evaluation of [omega] counts one iteration
    in [runs]'s {!tally}, and each call its verdict, the [None] of
    [wcet > limit] included. *)
