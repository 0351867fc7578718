(** WCET sensitivity analysis for security tasks — a design-space tool
    the paper's workflow implies: the unschedulability verdict of
    Algorithm 1 "will help the designer in modifying the requirements"
    (Sec. 4.5), and WCETs of monitoring mechanisms are the most
    uncertain input (a Tripwire pass depends on store size). This
    module answers "how much can the monitoring workload grow before
    the set stops being schedulable within the designer bounds?"

    Headroom is expressed in percent: [150] means every (or one)
    security WCET can grow to 1.5x before some task misses its
    [T_s^max] under the HYDRA-C analysis with all periods at their
    bounds (the Algorithm 1 admission check). *)

type report = {
  global_headroom_pct : int option;
      (** largest uniform scaling of every security WCET that stays
          schedulable; [None] when already unschedulable at 100%,
          [Some 1000] when even the search ceiling fits *)
  per_task_headroom_pct : (Rtsched.Task.sec_task * int option) list;
      (** largest scaling of each task alone (others at their nominal
          WCET), in priority order *)
}

val schedulable_with_scale :
  ?policy:Analysis.carry_in_policy -> Analysis.system ->
  Rtsched.Task.sec_task array -> scale_pct:int ->
  only:Rtsched.Task.sec_task option -> bool
(** Whether the set passes the admission check when the WCET of
    [only] (or of every task when [None]) is scaled by
    [scale_pct / 100] (scaled WCETs are clamped to at least 1 and the
    task becomes trivially infeasible when its WCET exceeds its
    period bound). *)

val analyze :
  ?policy:Analysis.carry_in_policy -> Analysis.system ->
  Rtsched.Task.sec_task array -> report
(** Binary-searches headroom up to 1000% (10x). *)

val render : Format.formatter -> report -> unit
