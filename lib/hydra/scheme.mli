(** Unified front-end over the four compared schemes (Sec. 5.2.3):
    HYDRA-C (this paper), HYDRA (DATE'18 greedy best-fit + period
    minimization), HYDRA-TMax (best-fit, periods at bounds) and
    GLOBAL-TMax (everything global, periods at bounds). *)

type t =
  | Hydra_c
  | Hydra
  | Hydra_tmax
  | Global_tmax

val all : t list
(** The four schemes, HYDRA-C first. *)

val name : t -> string
(** Display name matching the paper ("HYDRA-C", "HYDRA", ...). *)

type outcome = {
  schedulable : bool;
  periods : int array option;
      (** selected periods indexed by [sec_id]; [None] if
          unschedulable *)
  sec_cores : int array option;
      (** pinned core per security task (partitioned schemes only) *)
}

val evaluate :
  ?policy:Analysis.carry_in_policy -> ?obs:Hydra_obs.t -> t ->
  Rtsched.Task.taskset -> rt_assignment:int array -> outcome
(** Evaluates a scheme on a taskset whose RT part is already
    partitioned ([rt_assignment] is ignored by [Global_tmax]).
    [policy] is the carry-in policy of [Hydra_c]'s analysis; the other
    schemes ignore it.
    [obs] forwards to the underlying analyses, which record their
    fixed-point and search metrics (doc/OBSERVABILITY.md). *)
