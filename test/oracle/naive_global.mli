(** Reference global RTA for the GLOBAL-TMax baseline: the list-based
    Guan bound (a sorted list of carry-in increments per iterate) and
    the textbook Eq. 7 iteration from [C], that
    {!Rtsched.Rta_global.response_times} is differential-tested against
    ([test/test_rtsched.ml]). *)

val omega :
  n_cores:int -> job_wcet:Rtsched.Task.time -> window:Rtsched.Task.time ->
  (Rtsched.Rta_global.gtask * Rtsched.Task.time) list -> Rtsched.Task.time
(** The Guan bound on a window for a job of WCET [job_wcet], over the
    higher-priority [(task, response time)] pairs: every task's
    non-carry-in interference plus the [n_cores - 1] largest carry-in
    increments, found by sorting them. The reference for
    {!Rtsched.Guan.bound}. *)

val response_times :
  n_cores:int -> Rtsched.Rta_global.gtask list ->
  Rtsched.Task.time option list
(** Same contract as {!Rtsched.Rta_global.response_times}: the
    production path must return the identical values and [None]
    verdicts. *)
