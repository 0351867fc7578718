(** Exact uniprocessor schedulability by hyperperiod simulation.

    For synchronous periodic tasks with constrained deadlines under
    preemptive fixed-priority scheduling, simulating one hyperperiod
    from the synchronous release decides schedulability exactly (the
    critical instant is at time 0 and the schedule repeats). This
    module is an {e independent} oracle — a deliberately naive
    tick-by-tick simulator with no code shared with
    {!Rtsched.Rta_uniproc} or the event-driven {!Sim.Engine} — used for
    differential testing: the time-demand analysis must agree with it
    wherever the hyperperiod is tractable ([test/test_rtsched.ml]). *)

type verdict =
  | Schedulable of int list
      (** worst observed response time of each task, in the order
          given *)
  | Unschedulable of int  (** id of the first task to miss a deadline *)
  | Hyperperiod_too_large
      (** the LCM of the periods exceeds the caller's budget *)

val lcm_periods : Rtsched.Task.rt_task list -> int
(** LCM of the task periods (the hyperperiod). *)

val simulate : ?max_hyperperiod:int -> Rtsched.Task.rt_task list -> verdict
(** [simulate tasks] runs one hyperperiod from the synchronous release
    on a single core. Default budget: 1_000_000 ticks. *)

val schedulable :
  ?max_hyperperiod:int -> Rtsched.Task.rt_task list -> bool option
(** [Some b] when the hyperperiod fits the budget, [None] otherwise. *)
