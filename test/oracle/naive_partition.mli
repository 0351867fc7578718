(** Reference RT partitioner: every candidate core re-checks all of its
    tasks, the newcomer included, with the list-based Eq. 1
    ({!Naive_uniproc.core_rt_schedulable}). {!Rtsched.Partition}, which
    re-runs Eq. 1 only where the newcomer can change a result, is
    differential-tested against it ([test/test_rtsched.ml]). *)

val choose_core :
  Rtsched.Partition.heuristic -> Rtsched.Task.rt_task list array ->
  Rtsched.Task.rt_task -> int option
(** Same contract as {!Rtsched.Partition.choose_core}. *)

val partition_rt :
  ?heuristic:Rtsched.Partition.heuristic -> Rtsched.Task.taskset ->
  int array option
(** Same contract as {!Rtsched.Partition.partition_rt}. *)
