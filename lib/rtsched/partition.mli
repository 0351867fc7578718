(** Partitioning heuristics for RT tasks (paper Sec. 2.1 / Table 3).

    Tasks are considered in decreasing-utilization order and placed on
    a core only if the exact per-core time-demand analysis (Eq. 1)
    still admits every task already on that core. The paper uses
    best-fit; first-fit and worst-fit are provided for the partitioning
    ablation (experiment X2 in DESIGN.md).

    Each core keeps its tasks in priority order with their WCRTs, so a
    candidate core re-runs Eq. 1 only where the newcomer can change a
    result: for the newcomer, and warm for the tasks below it
    (doc/PERFORMANCE.md, "Eq. 1 on arrays, incremental best-fit"). The
    state lives in each call. *)

type heuristic =
  | Best_fit  (** feasible core with the highest current utilization *)
  | First_fit  (** feasible core with the lowest index *)
  | Worst_fit  (** feasible core with the lowest current utilization *)

val heuristic_name : heuristic -> string

val partition_rt :
  ?heuristic:heuristic -> Task.taskset -> int array option
(** [partition_rt ts] assigns every RT task of [ts] to a core such that
    each core passes exact TDA, returning [assignment] with
    [assignment.(i)] the core of [ts.rt.(i)], or [None] if the
    heuristic fails to place some task. Default heuristic is
    [Best_fit]. *)

val choose_core :
  heuristic -> Task.rt_task list array -> Task.rt_task -> int option
(** [choose_core h cores task] is the core, among those that stay
    TDA-feasible with [task] added to [cores.(m)], that [h] picks
    (lowest index on ties), or [None] if there is none. A core whose
    own tasks already miss a deadline is never picked. *)

val cores_of_assignment :
  Task.taskset -> int array -> Task.rt_task list array
(** Per-core RT task lists (index = core) for a given assignment. *)
