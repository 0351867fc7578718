(** Batch execution core of the admission-control daemon: many
    resident {!Tenant}s, request batches coalesced per tenant and
    sharded across domains (doc/SERVER.md).

    {b Determinism contract.} For a given batch schedule (the
    partition of the request stream into batches), responses are
    byte-identical for every [jobs] value: requests are grouped by
    tenant in first-occurrence order, each group is processed
    sequentially by exactly one worker (a {!Parallel.Pool.Static}
    pool), tenants are disjoint between groups, and responses are
    slotted back by request position. Registry counters are
    order-commutative sums and nothing wall-clock enters the
    registry, so metrics snapshots agree too.

    {b Coalescing.} Within a group, consecutive dirty ops (init,
    arrive, leave, set_cores, reselect) apply their state edits
    immediately but share one period selection, run at the next
    [Query]/[Remove]/[Init] barrier or at group end; each coalesced
    requester receives the final selection. [server.select] counts
    materializations — under load it grows much slower than
    [server.req.*].

    {b Tenant cap.} At most {!max_tenants} tenants are resident. The
    cap is decided on the calling domain before dispatch, from the
    table and the batch alone: a group whose tenant is not resident
    may create it only while fewer than {!max_tenants} tenants are
    counted — those resident at the batch's start plus those admitted
    by earlier groups (first-occurrence order) that carry an [Init].
    Otherwise each of its [Init]s gets [rejected] ("tenant limit 64
    reached") and leaves no state. A slot freed by [Remove] counts from
    the next batch on; replacing a resident tenant is always admitted. *)

type t

val max_tenants : int
(** 64: each resident tenant holds a workload memo of up to 2 MiB, so
    the memos stay under 128 MiB. *)

val create : ?obs:Hydra_obs.t -> ?jobs:int -> unit -> t
(** [jobs] (default 1) sizes the persistent worker pool. Tenants stay
    warm between batches (resident caches, search hints, cached
    clean-tenant results, see {!Tenant.materialize}); every
    selection is bit-identical to one on a fresh system of the
    tenant's state at that point. *)

val exec_batch :
  ?ctxs:Hydra_obs.Trace_ctx.t option array -> t -> Protocol.request list ->
  Protocol.response list
(** Execute one batch; the response list is in request order, one
    response per request. Never raises on bad requests — they map to
    [rejected]/[error] responses ([Shutdown] and [Obs_snapshot] too:
    they are daemon-level, see {!Daemon}).

    [ctxs], when given, must have one slot per request: a [Some]
    context marks a {e traced} request, whose dispatch to a worker
    becomes a cross-domain flow arrow ([server.dispatch]) and whose
    worker-side processing a ["server.apply"] child span with a
    nested ["server.select"] when it triggers a selection. The engine
    also drops [Shard], [Coalesce] and [Select] events into its
    {!flight} ring as the batch executes. Neither affects responses or
    snapshot metrics.

    @raise Invalid_argument if [ctxs] has a different length than the
    batch. *)

val flight : t -> Hydra_obs.Flight.t
(** The engine's flight-recorder ring, created with the engine (default
    capacity). The daemon records its own Accept/Decode/Reply/Slow/
    Error events into the same ring and dumps it
    ({!Hydra_obs.Flight.dump}). *)

val shutdown : t -> unit
(** Stop the worker pool. The engine must not be used afterwards. *)

val tenant_count : t -> int
val find_tenant : t -> string -> Tenant.t option
(** Test hook: the resident tenant record, if any. *)
