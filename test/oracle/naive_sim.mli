(** Reference simulator: the seed stepper the skip-ahead
    {!Sim.Engine.run} was derived from and is differential-tested
    against ([test/test_sim.ml], [test/test_experiments.ml];
    doc/SIMULATOR.md).

    Every scheduling point re-sorts the ready list by priority and
    every next-event search scans all tasks, so each step is easy to
    check by eye. It performs no argument validation — those checks
    live in {!Sim.Engine.run}, so feed it only inputs that call
    accepts. *)

val run :
  ?hooks:Sim.Engine.hooks -> ?overheads:Sim.Engine.overheads -> n_cores:int ->
  horizon:Sim.Engine.time -> Sim.Engine.sim_task list -> Sim.Engine.stats
(** Same contract as {!Sim.Engine.run} without [obs]: on every valid
    input the production engine must produce the identical hook call
    sequence and stats. *)
