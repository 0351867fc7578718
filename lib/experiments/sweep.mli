(** The shared design-space sweep behind Figs. 6, 7a and 7b: generate
    Table-3 tasksets per base-utilization group and evaluate all four
    schemes on each. Figures are pure aggregations of the resulting
    records, so one sweep regenerates all three. *)

type record = {
  group : int;  (** base-utilization group, 0..groups-1 *)
  norm_util : float;  (** U / M of the generated taskset *)
  bounds : int array;  (** T_s^max per security task, indexed by sec_id *)
  outcomes : (Hydra.Scheme.t * Hydra.Scheme.outcome) list;
      (** evaluation of each scheme on this taskset *)
}

type t = {
  n_cores : int;
  per_group : int;  (** tasksets attempted per group *)
  records : record list;
}

val run :
  ?policy:Hydra.Analysis.carry_in_policy ->
  ?config:Taskgen.Generator.config -> ?jobs:int -> ?obs:Hydra_obs.t ->
  n_cores:int -> per_group:int -> seed:int -> unit -> t
(** Runs the sweep. Each worker builds its own
    {!Hydra.Analysis.system} per taskset, so the per-system workload
    cache is never shared across domains. [config] defaults to
    [Taskgen.Generator.default_config ~n_cores]; every record evaluates
    all four schemes ({!Hydra.Scheme.all}). Each taskset gets its own
    RNG stream, pre-split in generation order
    ({!Taskgen.Rng.split_n}), so results are independent of evaluation
    order. Groups where the generator
    exhausts its attempts contribute fewer records.

    [jobs] (default {!Parallel.Pool.default_jobs}[ ()]) evaluates
    tasksets on that many domains; the records are {b identical} for
    every [jobs] value — [jobs:1] is the plain sequential loop — per
    the determinism contract in doc/PARALLELISM.md.

    [obs] wraps the sweep in a [sweep.run] span, each taskset in a
    [sweep.item] span (attributed to the worker domain that ran it),
    counts [sweep.tasksets.generated] / [sweep.tasksets.discarded] and
    forwards to every analysis underneath; it never affects the
    records (doc/OBSERVABILITY.md). *)

val group_records : t -> group:int -> record list

val mean_norm_util : record list -> float
(** Mean x-coordinate of a group's records. *)

val acceptance : record list -> scheme:Hydra.Scheme.t -> float
(** Fraction of records the scheme found schedulable. *)

val schedulable_periods :
  record -> scheme:Hydra.Scheme.t -> int array option
(** The scheme's period vector on this record, when schedulable. *)
