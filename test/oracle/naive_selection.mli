(** Reference Algorithms 1 and 2: the seed period selection
    {!Hydra.Period_selection.select} is equivalence-gated against
    ([test/test_analysis.ml], [test/test_server.ml]).

    Per-probe array copies, a full suffix refresh after every fixed
    period, a plain binary search per task, and cold fixed points
    through {!Naive_analysis} — never through the production
    analysis, so the two sides of the gate share no fast-path code. *)

val select :
  ?policy:Hydra.Analysis.carry_in_policy ->
  ?bounds_out:Rtsched.Task.time array -> Hydra.Analysis.system ->
  Rtsched.Task.sec_task array -> Hydra.Period_selection.result
(** Same contract as {!Hydra.Period_selection.select} without
    [warm0]/[hints]: the production path must return a bit-identical
    result, and fill [bounds_out] (indexed by [sec_id], untouched when
    [Unschedulable]) with the same all-bounds responses. *)
