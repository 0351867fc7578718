(** Discrete-event multicore fixed-priority preemptive scheduler
    simulator.

    This replaces the paper's physical testbed (RPi3 + PREEMPT_RT
    Linux): it simulates [M] identical cores running a mix of {e
    pinned} and {e migrating} periodic tasks under preemptive
    fixed-priority scheduling with integer-tick time. At every
    scheduling point (release or completion) the ready jobs are
    scanned in priority order: a pinned job claims its own core if
    still unclaimed, a migrating job claims any unclaimed core
    (preferring the core it last ran on, to avoid gratuitous
    migrations). This realizes partitioned FP, the paper's
    semi-partitioned policy (migrating lowest-priority-band security
    tasks), and global FP, depending on how tasks are pinned.

    Context switches and migrations are counted exactly as observable
    schedule events, which is what the paper measures with [perf] in
    Fig. 5b.

    The engine skips ahead from event to event (bucketed calendar of
    releases, bitset ready set, allocation-free per-event path). The
    seed stepper it was derived from lives on as a test-only oracle
    ([test/oracle/naive_sim.ml]); the two are differential-tested to
    produce bit-identical hook call sequences, event streams and
    stats, see doc/SIMULATOR.md. All times are integer ticks (a tick
    has no fixed physical duration; experiments use 1 tick = 0.1 ms),
    and every run is a pure function of its arguments — no wall clock,
    no global RNG, byte-identical results across repeats and [--jobs]
    values. *)

type time = int

type sim_task = {
  st_id : int;  (** unique across all simulated tasks *)
  st_name : string;
  st_wcet : time;  (** execution demand of every job (= WCET) *)
  st_period : time;
  st_deadline : time;  (** relative deadline, [<= period] *)
  st_prio : int;  (** globally unique; smaller = higher *)
  st_core : int option;  (** [Some m]: pinned to core [m]; [None]: migrates *)
  st_offset : time;  (** release of the first job *)
}

type job = {
  j_task : sim_task;
  j_seq : int;  (** per-task job index, from 0 *)
  j_release : time;
  j_abs_deadline : time;
  mutable j_remaining : time;
  mutable j_last_core : int;  (** [-1] before first dispatch *)
  mutable j_started_at : time;  (** [-1] before first dispatch *)
}

type hooks = {
  on_release : (job -> unit) option;
  on_execute : (job -> core:int -> start:time -> stop:time -> unit) option;
      (** called for every maximal execution segment of a job *)
  on_finish : (job -> finish:time -> unit) option;
  on_preempt : (job -> core:int -> time:time -> unit) option;
      (** called when an unfinished running job is displaced from
          [core] while still ready — exactly the events counted in
          [preemptions] *)
  on_migrate : (job -> from_core:int -> to_core:int -> time:time -> unit) option;
      (** called when a job is dispatched on a core different from the
          one it last ran on — exactly the events counted in
          [migrations] *)
}
(** All hooks default to [None] ({!no_hooks}); unset hooks cost
    nothing on the scheduling paths. *)

val no_hooks : hooks

type overheads = {
  dispatch_cost : time;
      (** extra execution charged to a job each time it is (re)placed
          on a core whose previous occupant was different — the
          context-switch cost the paper assumes negligible *)
  migration_cost : time;
      (** additional cost when the dispatch happens on a different core
          than the job last ran on (cache/affinity penalty) *)
}
(** Non-zero overheads let experiments probe the paper's "migration and
    context switch overhead is negligible compared to WCET" assumption
    (Sec. 3): costs inflate the dispatched job's remaining execution,
    so thrashing manifests as longer responses and deadline misses. *)

val no_overheads : overheads

type task_stats = {
  ts_task : sim_task;
  ts_released : int;
  ts_finished : int;
  ts_deadline_misses : int;
      (** jobs that finished late or were still unfinished when the
          next job of the task arrived (such jobs are aborted) *)
  ts_aborted : int;
  ts_max_response : time;  (** over finished jobs; 0 if none finished *)
  ts_total_response : time;  (** summed over finished jobs *)
}

type stats = {
  horizon : time;
  per_task : task_stats array;  (** indexed like the input task list *)
  context_switches : int;
      (** occupant changes of a core, idle transitions included — the
          event [perf] counts as [cs] *)
  preemptions : int;  (** displacements of an unfinished running job *)
  migrations : int;
      (** job dispatches on a core different from the job's previous one *)
  busy_ticks : int;  (** summed over cores *)
  idle_ticks : int;  (** summed over cores *)
  decision_events : int;
      (** scheduling decision points visited (releases, completions,
          and time 0) — identical to the reference stepper's count by
          construction, and the unit in which benchmark throughput
          is reported ([sim.events_per_s] in perfbench's [rover]
          workload, doc/SIMULATOR.md) *)
  trace : Trace.t option;
}

val run :
  ?obs:Hydra_obs.t -> ?hooks:hooks -> ?collect_trace:bool ->
  ?overheads:overheads -> n_cores:int -> horizon:time -> sim_task list ->
  stats
(** Simulates the task list over [\[0, horizon)] (ticks). [overheads]
    defaults to {!no_overheads} (the paper's assumption).

    The differential tests ([test/test_sim.ml]) hold the run to the
    reference stepper's results — same hook call sequence, same stats
    (doc/SIMULATOR.md).

    [obs] wraps the run in a [sim.run] span and accumulates the
    schedule-event counters ([sim.context_switches],
    [sim.preemptions], [sim.migrations], [sim.busy_ticks],
    [sim.idle_ticks], [sim.decision_events], [sim.runs]) — see
    doc/OBSERVABILITY.md.
    @raise Invalid_argument on empty task list, non-positive horizon
    or WCET, pinned core out of range, duplicate ids/priorities, or
    negative overheads. *)
