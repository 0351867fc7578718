(** One resident tenant of the admission-control daemon: a mutable
    system (RT partition + security catalog) that stays warm across
    reconfiguration requests (doc/SERVER.md).

    What stays resident between requests:
    {ul
    {- the {!Hydra.Analysis.system} with its per-core workload cache —
       RT arrivals/departures invalidate only the affected core's
       cached columns ({!Hydra.Analysis.refresh_rt_cores});}
    {- the all-bounds WCRT vector of the last successful selection,
       used as [warm0] floors for the next one whenever every edit
       since kept them sound (interference monotone: arrivals
       preserve the floors, departures and repartitions drop them);}
    {- the last materialized {!Hydra.Period_selection.result}, served
       to [Query] without recomputation while no edit is pending.}}

    A tenant is {b not} domain-safe; the engine guarantees exactly one
    domain touches a tenant during a batch (tenants are sharded across
    workers by group). *)

type t

type 'a admission =
  | Admitted of 'a
  | Rejected of string
      (** admission control refused; tenant state unchanged *)
  | Invalid of string  (** malformed edit (bad spec, unknown name...) *)

val create :
  name:string -> cache_capacity:int -> cores:int ->
  rt:Protocol.rt_spec list -> sec:Protocol.sec_spec list -> t admission
(** Build a tenant from an [Init] request: rate-monotonic RT
    priorities, best-fit partitioning ([Rejected] if some RT task
    cannot be placed), fresh analysis system with the cache bounded to
    [cache_capacity] entries (0 = unbounded). *)

val name : t -> string

val rt_arrive : t -> Protocol.rt_spec -> unit admission
(** Admit one RT task: global RM priorities are rebuilt, the incoming
    task is placed best-fit on a core that stays TDA-feasible with it
    (existing placements frozen), and only that core's cached workload
    columns are refreshed. [Rejected] if no core admits it. Warm
    floors stay valid (interference only grew). *)

val rt_leave : t -> string -> unit admission
(** Remove an RT task by name: its core's columns are refreshed, warm
    floors are dropped (interference shrank). *)

val sec_arrive : t -> Protocol.sec_spec -> unit admission
(** Append a security task at the lowest security priority — existing
    tasks' hp sets are unchanged, so warm floors stay valid and the
    newcomer starts with no floor. *)

val sec_leave : t -> string -> unit admission
(** Remove a security task by name; ids/priorities renumber and warm
    floors are dropped. *)

val set_cores : t -> int -> unit admission
(** Change the core count: full repartition and a fresh system
    (structural delta — cache and warm floors discarded). [Rejected]
    if the RT set no longer partitions; state unchanged then. *)

val touch : t -> unit
(** Mark the tenant dirty so the next {!materialize} recomputes
    ([Reselect]). *)

val materialize :
  ?obs:Hydra_obs.t -> ?ctx:Hydra_obs.Trace_ctx.t -> t ->
  Hydra.Period_selection.result
(** The tenant's current period selection. Clean tenants are served
    from the cached last result; otherwise the selection runs on the
    resident system — warm workload cache, [warm0] floors when every
    edit since kept them sound, and the previous periods as Algorithm 2
    search hints. The result is {b bit-identical} to
    {!Hydra.Period_selection.select} on a fresh
    {!Hydra.Analysis.make_system} of {!snapshot} (differential-tested
    in [test/test_server.ml]). Counts [server.select] and
    [server.select.warm] on [obs]. A traced request's [ctx] wraps the
    selection in a ["server.select"] child span
    ({!Hydra_obs.trace_span}). *)

val stats : t -> Protocol.stats
val selects : t -> int

val snapshot : t -> Rtsched.Task.taskset * int array
(** The current taskset (RM-prioritized RT + arrival-ordered security
    tasks) and per-task core assignment — what the differential test
    feeds to its fresh reference. *)
