(** One resident tenant of the admission-control daemon: a mutable
    system (RT partition + security catalog) that stays warm across
    reconfiguration requests (doc/SERVER.md).

    What stays resident between requests:
    {ul
    {- the {!Hydra.Analysis.system} with its per-core workload cache —
       RT arrivals/departures invalidate only the affected core's
       cached columns ({!Hydra.Analysis.refresh_rt_cores});}
    {- the last materialized {!Hydra.Period_selection.result}, served
       to [Query] without recomputation while no edit is pending, and
       whose periods are the next selection's search hints.}}

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
  name:string -> cores:int -> rt:Protocol.rt_spec list ->
  sec:Protocol.sec_spec list -> t admission
(** Build a tenant from an [Init] request: rate-monotonic RT
    priorities, best-fit partitioning ([Rejected] if some RT task
    cannot be placed), fresh analysis system (its workload cache is
    the fixed 256-slot memo of {!Hydra.Analysis.cache}). [Invalid] if
    {!Rtsched.Task.make_taskset} refuses the system: [cores] below 1 or
    above {!Rtsched.Task.max_cores}, more than
    {!Rtsched.Task.max_tasks} tasks, or a time above
    {!Rtsched.Task.max_time}. *)

val name : t -> string

val rt_arrive : t -> Protocol.rt_spec -> unit admission
(** Admit one RT task: global RM priorities are rebuilt, the incoming
    task is placed best-fit on a core that stays TDA-feasible with it
    (existing placements frozen), and only that core's cached workload
    columns are refreshed. [Rejected] if no core admits it, [Invalid]
    if the tenant already holds {!Rtsched.Task.max_tasks} tasks. *)

val rt_leave : t -> string -> unit admission
(** Remove an RT task by name: its core's columns are refreshed. *)

val sec_arrive : t -> Protocol.sec_spec -> unit admission
(** Append a security task at the lowest security priority — existing
    tasks' hp sets are unchanged. [Invalid] if the tenant already holds
    {!Rtsched.Task.max_tasks} tasks. *)

val sec_leave : t -> string -> unit admission
(** Remove a security task by name; ids/priorities renumber. *)

val set_cores : t -> int -> unit admission
(** Change the core count: full repartition and a fresh system
    (structural delta — the cache is discarded). [Rejected]
    if the RT set no longer partitions, [Invalid] if the count is
    below 1 or above {!Rtsched.Task.max_cores}; state unchanged
    then. *)

val touch : t -> unit
(** Mark the tenant dirty so the next {!materialize} recomputes
    ([Reselect]). *)

val materialize :
  ?obs:Hydra_obs.t -> ?ctx:Hydra_obs.Trace_ctx.t -> t ->
  Hydra.Period_selection.result
(** The tenant's current period selection. Clean tenants are served
    from the cached last result; otherwise the selection runs on the
    resident system — warm workload cache, and the previous periods as
    Algorithm 2 search hints. The result is {b bit-identical} to
    {!Hydra.Period_selection.select} on a fresh
    {!Hydra.Analysis.make_system} of {!snapshot} (differential-tested
    in [test/test_server.ml]). Counts [server.select] on [obs]. A
    traced request's [ctx] wraps the selection in a ["server.select"]
    child span ({!Hydra_obs.trace_span}). *)

val stats : t -> Protocol.stats
val selects : t -> int

val iterations : t -> int
(** Fixed-point iterations tallied by the memo of the tenant's system:
    two readings around {!materialize} give that selection's work. *)

val snapshot : t -> Rtsched.Task.taskset * int array
(** The current taskset (RM-prioritized RT + arrival-ordered security
    tasks) and per-task core assignment — what the differential test
    feeds to its fresh reference. *)
