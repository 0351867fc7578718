(** Reference HYDRA-C WCRT analysis (Eqs. 6-8): the seed
    implementation {!Hydra.Analysis.response_time} is equivalence-gated
    against ([test/test_analysis.ml]).

    No workload cache, no warm start, no carry-in pruning: [Top_delta]
    iterates Eq. 7 from [C_s] over the uncached
    {!Hydra.Analysis.rt_interference} term, and [Exhaustive] is literal
    Eq. 8 — the maximum over {!Hydra.Analysis.carry_in_subsets} of
    {!Hydra.Analysis.response_time_fixed_subset}, [None] as soon as one
    subset's fixed point exceeds [limit]. *)

val response_time :
  ?policy:Hydra.Analysis.carry_in_policy -> Hydra.Analysis.system ->
  hp:Hydra.Analysis.hp_sec list -> wcet:Rtsched.Task.time ->
  limit:Rtsched.Task.time -> Rtsched.Task.time option
(** Same contract as {!Hydra.Analysis.response_time} ([policy] defaults
    to [Top_delta]); the production path must return the identical
    value and the identical [None] verdict. *)
