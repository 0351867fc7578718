(** Domain-safe observability: counters, distributions, monotonic-clock
    spans, and two exporters (the metrics {!Snapshot}, which
    {!Report} summarizes, and Chrome trace-event JSON loadable in
    Perfetto / chrome://tracing).

    Every instrumented entry point in the repository takes an optional
    [?obs:Hydra_obs.t] capability. The default is [None], and every
    recording function in this module is an allocation-free no-op on
    [None] — instrumentation can stay in hot paths (the period search,
    the simulator, the sweep workers) without costing uninstrumented
    runs anything. The three WCRT analyses tally their own work in
    caller-owned buffers instead, reported once per selection or
    baseline call, and the simulator {!merge}s each run's job
    responses once.

    {b Domain safety.} All recording operations may be called
    concurrently from any number of domains (in particular from inside
    {!Parallel.Pool} workers). Counters, distributions and histograms
    are plain values behind one registry mutex, which every record and
    every read takes and under which nothing else is locked or called,
    so no update is lost and a read sees every update before it. A
    span is one event in a lock-free store.

    {b Determinism contract.} Observability never feeds back into
    results: recording functions return [unit] (or, for {!span}, the
    wrapped function's value unchanged), so an instrumented run
    computes bit-for-bit the same artifacts as an uninstrumented one —
    stdout stays byte-identical for every [--jobs] value, with or
    without [--metrics]/[--trace-out]. See doc/OBSERVABILITY.md for the
    metric catalog and doc/PARALLELISM.md for the contract. *)

type t
(** A metrics registry plus span sink. Create one per instrumented run
    and thread it (as [Some t]) through the [?obs] parameters. *)

val create : unit -> t
(** A fresh, empty registry. Every counter, distribution and histogram
    recorded into it is a pure function of the work done, so its
    {!Snapshot} is byte-identical for every [--jobs] value
    (doc/OBSERVABILITY.md); wall-clock durations live only in span
    events, which {!chrome_trace} exports and the snapshot omits. *)

(** {1 Log-bucketed histograms}

    Deterministic latency histograms in the HDR-histogram family:
    non-negative integer samples (negative samples are clamped to 0)
    land in singleton buckets below 64 and in one of 64 equal
    sub-buckets of their power-of-two octave above, so a bucket's
    upper bound overestimates any value in it by at most 1/64. The
    bucket index is a pure function of the value and counts add
    commutatively, which makes a registry's histogram — and every
    quantile read from it — bit-identical no matter how recording was
    interleaved across domains (the property behind byte-identical
    [--metrics-out] snapshots for every [--jobs] value; see
    doc/OBSERVABILITY.md for the full determinism argument). *)

module Histogram : sig
  type t
  (** A single-writer accumulator. The registry records {!sample}s and
      {!merge}s into one under its mutex and hands out copies ({!hists}). *)

  val create : unit -> t
  val record : t -> int -> unit
  val of_list : int list -> t
  (** [of_list vs] is a histogram of all of [vs]. *)

  val count : t -> int
  val sum : t -> int

  val min_value : t -> int option
  (** [None] while empty; likewise {!max_value}. *)

  val max_value : t -> int option

  val mean : t -> float
  (** [nan] while empty. *)

  val quantile : t -> float -> int
  (** [quantile h q] for [q] in [(0, 1]]: the value at rank
      [ceil (q * count)] of the recorded multiset, rounded up to its
      bucket's upper bound and clamped to the exact maximum — i.e.
      exactly [min (round_up v) (max)] where [v] is the sorted-sample
      quantile (property-tested against that oracle in
      test/test_obs.ml). Exact for samples below 64 and for any rank
      landing in the top occupied bucket; at most 1/64 above the true
      value otherwise. @raise Invalid_argument on an empty histogram
      or [q] outside [(0, 1]]. *)

  val round_up : int -> int
  (** Upper bound of the bucket a value lands in (identity below 64);
      the rounding function referenced by the {!quantile} contract. *)

  val nonzero_buckets : t -> (int * int) list
  (** [(upper_bound, count)] of every occupied bucket, ascending — the
      bucket array serialized by {!Snapshot}. *)
end

val now_ns : unit -> int
(** Monotonic clock (CLOCK_MONOTONIC) in nanoseconds. Unboxed and
    allocation-free; the zero point is unspecified (time since boot),
    so only differences are meaningful. *)

(** {1 Recording}

    All functions are no-ops when the first argument is [None]. Metric
    names are dot-separated paths ([layer.subject.quantity], e.g.
    ["analysis.fixpoint.iterations"]); the catalog lives in
    doc/OBSERVABILITY.md. *)

val incr : t option -> string -> unit
(** Bump a counter by one. *)

val add : t option -> string -> int -> unit
(** Bump a counter by [n]. Prefer accumulating in a local [int ref]
    inside a tight loop and calling [add] once at the end. *)

val observe : t option -> string -> int -> unit
(** Record one sample of a distribution (count/sum/min/max). *)

val sample : t option -> string -> int -> unit
(** Record one sample into a log-bucketed {!Histogram} — use for
    quantities whose {e distribution} matters (latencies, response
    times). Bucket counts add commutatively, so the histogram does not
    depend on the order samples arrive in. Negative samples are
    clamped to 0. *)

val merge : t option -> string -> Histogram.t -> unit
(** [merge obs name h] is {!sample} of every value [h] holds, under one
    lock: a hot loop records into its own {!Histogram} and merges once. *)

val span : t option -> string -> (unit -> 'a) -> 'a
(** [span obs name f] runs [f ()], timing it with the monotonic clock,
    and pushes one event attributed to the calling domain: the
    Chrome-trace exporter renders it, and {!span_stats} and the
    {!Snapshot}'s span counts fold it. Nested spans on the same domain
    render as a stack in Perfetto. The span is recorded (and the
    exception re-raised) even if [f] raises. On [None] this is exactly
    [f ()]. *)

(** {1 Request-scoped tracing}

    Causal tracing for the admission daemon's serving path
    (doc/SERVER.md): under [--trace-out] the daemon mints a
    {!Trace_ctx.t} per request, and every pipeline stage that touches
    the request wraps its work in {!trace_span} with a
    {!Trace_ctx.child} of the incoming context. Trace events share the
    store of {!span}'s events but not the metric tables — they appear
    only in {!chrome_trace} (category ["request"], with
    trace/span/parent ids in the event args, plus "s"/"f" flow pairs
    for cross-domain handoffs) and never in a {!Snapshot} — so enabling
    tracing leaves [--metrics-out] byte-identical. All recording
    functions are no-ops unless {e both} the registry and the context
    are present: an untraced request pays two option tests. *)

module Trace_ctx : sig
  type t = { trace_id : int; span_id : int; parent_id : int }
  (** Immutable context: [trace_id] is shared by every span of one
      request, [span_id] names the current span, [parent_id] its
      parent (0 at the root). Ids come from one process-wide atomic
      counter, so they are unique across domains and registries. *)

  val root : unit -> t
  (** A fresh trace: [span_id = trace_id], [parent_id = 0]. *)

  val child : t -> t
  (** Fork a sub-span: fresh [span_id], [parent_id] = the argument's
      [span_id], same [trace_id]. *)
end

val trace_span : t option -> Trace_ctx.t option -> string -> (unit -> 'a) -> 'a
(** [trace_span obs ctx name f] runs [f ()]; when both [obs] and [ctx]
    are present it also emits one request-trace span event carrying
    [ctx]'s ids, attributed to the calling domain. Recorded (and the
    exception re-raised) even if [f] raises. Unlike {!span}'s events,
    it is not counted by {!span_stats} or the {!Snapshot}. *)

val trace_emit :
  t option -> Trace_ctx.t option -> string -> start_ns:int -> dur_ns:int ->
  unit
(** Low-level emit with explicit timing ([start_ns] in {!now_ns}'s
    absolute clock) — for spans whose start predates the context, e.g.
    the daemon's whole-request root span timed from frame arrival. *)

val flow_begin : t option -> Trace_ctx.t option -> string -> unit
(** Emit the "s" half of a Chrome flow arrow (id = [ctx]'s trace id) on
    the calling domain — call where a request is handed off (e.g.
    enqueued for a pool worker). *)

val flow_end : t option -> Trace_ctx.t option -> string -> unit
(** The matching "f" half — call (with the same name) where the request
    is picked up on the executing domain. Perfetto draws the arrow
    between the two domains' rows. *)

val trace_count : t -> int
(** Number of request-trace events (request spans + flow halves)
    recorded; {!span}'s plain events are not counted. *)

(** {1 Reading}

    Aggregated views, sorted by metric name, of every update made
    before the read. Distributions and spans that were never recorded
    are omitted. *)

type counter_view = { cv_name : string; cv_total : int }

type dist_view = {
  dv_name : string;
  dv_count : int;
  dv_sum : int;
  dv_min : int;
  dv_max : int;
}

type hist_view = { hv_name : string; hv_hist : Histogram.t }

type span_view = {
  sv_name : string;
  sv_count : int;
  sv_total_ns : int;
  sv_max_ns : int;
}

val counters : t -> counter_view list
val dists : t -> dist_view list
val span_stats : t -> span_view list

val hists : t -> hist_view list
(** A view of every histogram with at least one sample, sorted by
    name. Each view is a fresh {!Histogram.t}, which later samples do
    not move; query it with {!Histogram.quantile} and friends. *)

val counter_total : t -> string -> int
(** Total of one counter; [0] if it was never touched. *)

(** {1 Exporters}

    [--metrics] prints {!Report}'s table of the {!Snapshot} on stderr. *)

val chrome_trace : ?extra:string list -> t -> string
(** Every recorded event as Chrome trace-event JSON
    ([{"traceEvents": [...]}], microsecond timestamps, tid = recording
    domain, ordered by start time) — open in
    {{:https://ui.perfetto.dev}Perfetto} or chrome://tracing. Each
    event appears once: a {!span} as an "X" event of category ["span"]
    without args, a {!trace_span}/{!trace_emit} as an "X" event of
    category ["request"] with [{"trace","span","parent"}] args, and
    {!flow_begin}/{!flow_end} as "s"/"f" halves of category
    ["request"] (id = trace id) that render as arrows across domain
    rows. [extra] appends pre-rendered trace-event objects (one JSON
    object per string, no separators) to the event array — how the
    simulated schedule from {!Sim.Event_log} shares the file with the
    analysis spans (it uses its own pid, so Perfetto shows two process
    groups). *)

val write_chrome_trace : ?extra:string list -> t -> path:string -> unit
(** {!chrome_trace} to a file. @raise Sys_error on I/O failure. *)

(** {1 Flight recorder}

    A fixed-size lock-free ring of compact structured events — the
    always-on crash/slow-path diagnostic of the admission daemon
    (doc/SERVER.md). {!Flight.record} is allocation-free and lock-free
    ([@lint.hot]-gated: one fetch-and-add claims a slot, five atomic
    stores fill it), so the daemon leaves it on in its default
    configuration; {!Flight.dump} renders the surviving events as
    [hydra_c.flight/1] JSONL, triggered on crash, SIGUSR1, or a request
    exceeding [--slow-request-ms]. [Hydra_server.Engine] owns the
    daemon's ring. Dumping concurrently with writers is best-effort: a
    slot overwritten mid-read can tear (such events render with kind
    ["torn"]). *)
module Flight : sig
  type t

  val schema : string
  (** ["hydra_c.flight/1"] — the dump's header-line schema. *)

  type kind =
    | Accept  (** batch read from the socket; [a] = payload count *)
    | Decode  (** request decoded; [b] = 0 ok / 1 malformed *)
    | Coalesce  (** pending dirty ops flushed; [a] = ops coalesced *)
    | Shard  (** tenant group dispatched; [a] = group size *)
    | Select
        (** selection served; [a] = duration ns, [b] = its fixed-point
            iterations from the tenant's memo (0: last result served) *)
    | Reply  (** response sent; [a] = latency ns, [b] = status code *)
    | Slow  (** batch exceeded --slow-request-ms; [a] = duration ns *)
    | Error  (** connection/protocol failure *)

  val create : ?capacity:int -> unit -> t
  (** Ring of [capacity] events (default 4096; rounded up to a power of
      two, floored at 8). Allocation happens here, never in [record]. *)

  val capacity : t -> int

  val recorded : t -> int
  (** Total events ever recorded (not capped by the ring size). *)

  val intern : t -> string -> int
  (** Intern a tenant name to a small id for [record]'s [tenant] field.
      Mutex-protected slow path — call once per tenant (or batch), not
      per event. *)

  val record : t -> ts:int -> kind:kind -> tenant:int -> a:int -> b:int -> unit
  (** Record one event: [ts] is the caller's {!now_ns} reading (passed
      in so fixed-sequence dumps are reproducible in tests), [tenant]
      an {!intern}ed id or -1, [a]/[b] per-kind arguments as documented
      on {!kind}. Lock-free, allocation-free, wait-free but for the
      single fetch-and-add. *)

  val dump : t -> string
  (** JSONL: a header line
      [{"schema","capacity","recorded","dumped"}] then the surviving
      (last [min recorded capacity]) events oldest-first, each
      [{"seq","ts_ns","kind","tenant","a","b"}]. *)

  val dump_to : t -> path:string -> unit
  (** {!dump} to a file. @raise Sys_error on I/O failure. *)
end

(** {1 Rate-limited operator logging}

    The sanctioned stderr channel for library code: hydra_lint rule D2
    rejects every other stderr write under [lib/server], so anything a
    long-running daemon tells an operator goes through here and is
    therefore throttled and structured. One line per event —
    [\[hydra\] event=... k=v ...] — with a token bucket on the
    monotonic clock; suppressed lines are counted and surface as
    [suppressed=N] on the next emitted line. Never touches stdout. *)
module Log : sig
  type t

  val create : ?rate_per_s:int -> ?burst:int -> ?out:Format.formatter ->
    unit -> t
  (** Token bucket of [burst] lines (default = [rate_per_s]) refilled
      at [rate_per_s] lines/second (default 10; 0 = unlimited). [out]
      defaults to stderr; tests inject a buffer formatter. *)

  val log : t -> string -> (string * string) list -> unit
  (** [log t event kvs] emits one structured line (or counts it
      suppressed when the bucket is empty). Values containing spaces,
      quotes or [=] are quoted and JSON-escaped. Domain-safe. *)

  val suppressed : t -> int
  (** Lines currently suppressed and not yet reported. *)

  val emitted : t -> int
end

(** {1 Metrics snapshot}

    Machine-readable export of the whole registry and its one
    serialized form — the [--metrics-out] backend and the daemon's
    [obs_snapshot] reply, consumed by [obs-report], the benchmark and
    CI (schema documented in doc/OBSERVABILITY.md). What moved between
    two snapshots is {!Obs_report.diff} of them. *)

module Snapshot : sig
  val schema : string
  (** The snapshot's self-identifying ["schema"] value,
      {!Obs_report.schema} (["hydra_c.metrics/1"]). *)

  val json_float : float -> string
  (** Renders a float as a JSON token, mapping non-finite values (nan,
      infinities — e.g. {!Sim.Metrics.mean_response} of a task with no
      finished job) to [null] instead of emitting bare [NaN], which is
      not JSON. Every float serialized into a snapshot goes through
      this. *)

  val to_json : t -> string
  (** One JSON object: ["schema"], ["counters"] (name → total),
      ["dists"] (name → count/sum/min/max/mean), ["histograms"] (name →
      count/sum/min/max/mean, p50/p95/p99/max quantiles, and the
      occupied bucket array as [{"le","count"}] pairs), ["spans"] (name
      → count). Keys are sorted, and every value is deterministic — a
      pure function of the analytical work; span durations are left to
      {!chrome_trace} — so snapshots of the same workload are
      byte-identical for every [--jobs] value (tested in
      test/test_obs.ml, gated in CI). *)

  val write : t -> path:string -> unit
  (** {!to_json} plus a trailing newline to a file.
      @raise Sys_error on I/O failure. *)
end

(** {1 Snapshot tooling re-exports}

    The offline halves of the observability layer, re-exported so
    consumers reach everything through [Hydra_obs]. *)

module Json = Obs_json
module Report = Obs_report
