(** Deterministic data-parallel map over OCaml 5 domains.

    The experiment layer's sweeps are embarrassingly parallel: every
    taskset/trial owns a pre-split RNG stream ({!Taskgen.Rng.split_n}),
    so evaluating item [i] touches no state shared with item [j]. This
    pool exploits that shape while preserving the repository's
    bit-for-bit reproducibility guarantee:

    {b Determinism contract.} [map ~jobs f n] returns
    [[| f 0; f 1; ...; f (n-1) |]] for {e every} [jobs] value: results
    are slotted into the output array by index, never by completion
    order, and workers race only over {e which} domain computes an
    index, never over what the result at that index is. Provided [f]
    is deterministic and items are independent (no shared mutable
    state), the output is identical for [jobs = 1] and [jobs = 64].
    [jobs = 1] does not spawn any domain at all — it is a plain
    ascending [for] loop in the calling domain, i.e. the exact
    sequential path.

    Scheduling is work-stealing: a shared atomic cursor hands out one
    index at a time to whichever worker is idle, so heterogeneous item
    costs (high-utilization tasksets take far longer to analyze than
    low ones) balance automatically.

    See [doc/PARALLELISM.md] for the full contract and measured
    speedups. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count () - 1], floored at 1: one worker
    per available core, leaving a core's worth of headroom for the OS
    and the orchestrating domain. On a single-core machine this is 1
    (fully sequential). *)

val map : ?obs:Hydra_obs.t -> ?jobs:int -> (int -> 'a) -> int -> 'a array
(** [map ~jobs f n] is [[| f 0; ...; f (n-1) |]] computed on [jobs]
    domains ([jobs - 1] spawned workers plus the calling domain).
    [jobs] defaults to {!default_jobs}[ ()] and is clamped to between
    1 and [n].

    If any [f i] raises, the first exception (in steal order) is
    re-raised in the caller with its backtrace after all workers have
    stopped; remaining unclaimed indices are abandoned.

    With [?obs], the pool records two workload counters, [pool.maps]
    and [pool.items]. Both are pure functions of the calls, so a
    snapshot stays byte-identical for every [jobs]; which worker ran
    an item, and for how long, is not recorded (the callers' own
    per-item spans show that in a trace, doc/PARALLELISM.md).

    @raise Invalid_argument if [n < 0]. *)

val map_array :
  ?obs:Hydra_obs.t -> ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array f a] is [Array.map f a], parallelized as {!map}. *)

val map_list :
  ?obs:Hydra_obs.t -> ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list f l] is [List.map f l], parallelized as {!map}. The
    result preserves list order. *)

(** Persistent worker pool for callers that dispatch {e many small}
    maps: the admission-control daemon runs one map per request batch,
    and paying a domain spawn (~100 us) per batch would dominate its
    latency profile (doc/SERVER.md). [create ~jobs] spawns [jobs - 1]
    long-lived domains that park on a condition variable between maps;
    {!Static.map} hands them a job, joins in from the calling domain,
    and blocks until the job is drained — so a pool runs exactly one
    map at a time and must only be driven from one domain.

    The determinism contract is the same as {!map}: results are
    slotted by index, so the output array is identical for every
    [jobs], and [jobs = 1] spawns no domains and runs the exact
    sequential path. Failure semantics are the same too: the first
    exception (in steal order) is re-raised in the caller after the
    job drains, and the pool remains usable. *)
module Static : sig
  type t

  val create : jobs:int -> t
  (** Spawns [max 1 jobs - 1] worker domains (so [jobs <= 1] is fully
      sequential). The caller must eventually {!shutdown} the pool or
      the domains keep the process alive. *)

  val map : ?obs:Hydra_obs.t -> t -> (int -> 'a) -> int -> 'a array
  (** [map t f n] is [[| f 0; ...; f (n-1) |]] on the pool's domains
      plus the calling domain; blocks until complete. Records the same
      two [pool.*] counters as {!val:map}.
      @raise Invalid_argument if [n < 0] or the pool was shut down. *)

  val shutdown : t -> unit
  (** Stops and joins the worker domains. Idempotent; the pool must
      not be used afterwards. *)
end
