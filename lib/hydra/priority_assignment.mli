(** Security-task priority assignment strategies.

    The paper takes security priorities as designer-given (Sec. 3) and
    leaves their choice open. Because Algorithm 1 minimizes periods
    from the highest priority down, the order matters twice: for
    schedulability (which carry-in patterns arise) and for which tasks
    get the shortest periods. This module implements the standard
    candidate orderings, a first-schedulable search, and a
    best-by-monitoring-frequency search — the machinery behind
    ablation X3 and a practical tool when the designer order is
    unschedulable. *)

type ordering =
  | Designer  (** keep the priorities as given *)
  | Wcet_ascending  (** shortest checks first (SJF-like) *)
  | Wcet_descending  (** heaviest checks first *)
  | Bound_ascending  (** tightest [T_s^max] first (rate-monotonic-like) *)
  | Utilization_descending
      (** highest [C_s / T_s^max] first (most demanding monitors first) *)

val all_orderings : ordering list
val ordering_name : ordering -> string

val apply : ordering -> Rtsched.Task.sec_task array -> Rtsched.Task.sec_task array
(** Fresh array with [sec_prio] reassigned to [0, 1, ...] in the
    ordering (ties broken by [sec_id]; [Designer] still normalizes the
    existing order to dense priorities). *)

val select_with :
  ?policy:Analysis.carry_in_policy -> Analysis.system ->
  Rtsched.Task.sec_task array -> ordering ->
  Period_selection.result
(** Runs Algorithm 1 under the given ordering. *)

val first_schedulable :
  ?policy:Analysis.carry_in_policy -> Analysis.system ->
  Rtsched.Task.sec_task array ->
  (ordering * Period_selection.assignment list) option
(** Tries {!all_orderings} in sequence and returns the first that
    schedules, with its period assignments. *)

val best_by_distance :
  ?policy:Analysis.carry_in_policy -> Analysis.system ->
  Rtsched.Task.sec_task array ->
  (ordering * Period_selection.assignment list * float) option
(** Among the schedulable {!all_orderings}, the one maximizing the
    Fig. 6 metric (normalized distance of the selected periods to the
    bounds), i.e. the most frequent monitoring. *)
