(** Convenience queries over simulation results — the quantities the
    paper reports from its testbed runs (deadline misses, context
    switches, response times). *)

val stats_of_sim_id : Engine.stats -> sim_id:int -> Engine.task_stats
(** Per-task stats by simulator task id. @raise Not_found if absent. *)

val deadline_misses : Engine.stats -> sim_ids:int array -> int
(** Total deadline misses over the given tasks. *)

val finished_jobs : Engine.stats -> sim_ids:int array -> int
(** Total completed jobs over the given tasks. *)

val mean_response : Engine.stats -> sim_id:int -> float
(** Mean response time of one task's finished jobs; [nan] if none. *)

val max_response : Engine.stats -> sim_id:int -> int
(** Maximum observed response time of one task (0 if none finished). *)

val throughput : Engine.stats -> sim_id:int -> float
(** Finished jobs per tick of one task. *)

val core_utilization : Engine.stats -> n_cores:int -> float
(** Busy fraction across all cores. *)

val equal_stats : Engine.stats -> Engine.stats -> bool
(** Structural equality of two runs' results: per-task stats, all
    schedule-event counters (context switches, preemptions,
    migrations, busy/idle ticks, decision events — all in ticks or
    counts) and, when both runs collected traces, their segment
    lists. This is the "stats stay bit-identical" half of the
    engine-vs-oracle equivalence contract (doc/SIMULATOR.md); the
    event-stream half is {!Event_log.first_divergence}. *)

val record : Hydra_obs.t option -> Engine.stats -> unit
(** Accumulates the schedule-event counters of one finished run into
    [obs] ([sim.context_switches], [sim.preemptions], [sim.migrations],
    [sim.busy_ticks], [sim.idle_ticks], [sim.decision_events],
    [sim.runs]); no-op on [None].
    {!Engine.run} already calls this when given [?obs] — use it for
    stats obtained without threading [obs] into the engine. *)
