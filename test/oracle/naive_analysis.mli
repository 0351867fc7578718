(** Reference HYDRA-C WCRT analysis (Eqs. 6-8): the seed
    implementation {!Hydra.Analysis.response_time} is equivalence-gated
    against ([test/test_analysis.ml]).

    No workload cache, no warm start, no carry-in pruning: [Top_delta]
    iterates Eq. 7 from [C_s] over the uncached {!rt_interference}
    term, and [Exhaustive] is literal Eq. 8 — the maximum over
    {!carry_in_subsets} of {!response_time_fixed_subset}, [None] as
    soon as one subset's fixed point exceeds [limit]. *)

type hp_sec = {
  hp_task : Rtsched.Task.sec_task;
  hp_period : Rtsched.Task.time;  (** period already chosen for this task *)
  hp_resp : Rtsched.Task.time;  (** its WCRT under that period *)
}
(** A higher-priority security task whose period and response time are
    already known: the seed's list form of the hp set, which the
    reference analysis and the tests build. *)

val fast_response_time :
  ?policy:Hydra.Analysis.carry_in_policy -> Hydra.Analysis.system ->
  hp:hp_sec list -> wcet:Rtsched.Task.time -> limit:Rtsched.Task.time ->
  Rtsched.Task.time option
(** {!Hydra.Analysis.response_time} on the list as its hp view (entry
    [i] holds the list's [i]-th task, [n = List.length hp]): the
    production analysis, called with the list form the differentials
    compare it at. *)

val response_time :
  ?policy:Hydra.Analysis.carry_in_policy -> Hydra.Analysis.system ->
  hp:hp_sec list -> wcet:Rtsched.Task.time ->
  limit:Rtsched.Task.time -> Rtsched.Task.time option
(** Same contract as {!Hydra.Analysis.response_time} ([policy] defaults
    to [Top_delta]); the production path must return the identical
    value and the identical [None] verdict. *)

val rt_interference :
  Hydra.Analysis.system -> job_wcet:Rtsched.Task.time -> Rtsched.Task.time ->
  Rtsched.Task.time
(** Total RT interference term of Eq. 6 for a window of length [x],
    computed without the workload cache: the sum over cores of
    {!Rtsched.Workload.rt_core_interference}. The production analysis
    computes the same value through its per-system cache. *)

val response_time_fixed_subset :
  Hydra.Analysis.system -> hp:hp_sec list ->
  carry_in_ids:int list -> wcet:Rtsched.Task.time -> limit:Rtsched.Task.time ->
  Rtsched.Task.time option
(** Eq. 7 under one {b fixed} carry-in set (tasks named by [sec_id]):
    one term of the Eq. 8 maximum. The tests use it to check that
    [Top_delta] upper-bounds every admissible subset. *)

val carry_in_subsets : 'a list -> max_size:int -> 'a list list
(** All sublists of size [<= max_size] (order-preserving): the
    admissible carry-in sets of Eq. 8. Generation is linear in the
    output size (sizes are threaded, not recomputed — see
    [test/test_analysis.ml] for the count law). *)
