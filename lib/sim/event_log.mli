(** Per-job schedule event log and Chrome-trace exporter.

    Records every observable schedule event of one {!Engine.run} —
    releases, maximal execution segments, preemptions, migrations,
    finishes, deadline misses — through the engine's {!Engine.hooks},
    and renders the schedule as Chrome trace-event JSON: one timeline
    row per simulated core, execution slices named by task, flow
    arrows connecting the segments around each migration, and instant
    markers for releases / preemptions / deadline misses. This is the
    simulated counterpart of the paper's perf/ftrace captures on the
    PREEMPT_RT testbed (Sec. 5): load the file in
    {{:https://ui.perfetto.dev}Perfetto} to read the schedule the way
    Fig. 5 was measured. One simulator tick renders as one
    microsecond, so integer tick boundaries stay exact.

    The log is single-writer (the engine is sequential); determinism
    comes from sorting events by (time, kind, task id, job seq) before
    export, so the rendered trace is a pure function of the simulated
    schedule. Format details in doc/OBSERVABILITY.md. *)

type time = Engine.time

type kind =
  | Release
  | Segment of { core : int; stop : time }
      (** maximal execution segment starting at the event time *)
  | Preempt of { core : int }
  | Migrate of { from_core : int; to_core : int }
  | Finish of { response : time }
  | Deadline_miss  (** emitted alongside a late [Finish] *)

type event = {
  e_time : time;
  e_task_id : int;
  e_task_name : string;
  e_job_seq : int;
  e_kind : kind;
}

type t

val create : n_cores:int -> t
(** An empty log for a simulation on [n_cores] cores (determines the
    timeline rows of the export).
    @raise Invalid_argument if [n_cores < 1]. *)

val hooks : ?base:Engine.hooks -> t -> Engine.hooks
(** Hooks that append to the log, chaining to [base] (default
    {!Engine.no_hooks}) after recording — pass the result to
    {!Engine.run}. *)

val n_cores : t -> int

val length : t -> int
(** Number of recorded events. *)

val events : t -> event list
(** All events sorted by (time, kind rank, task id, job seq) — a total
    order independent of hook firing order. *)

val pp_event : Format.formatter -> event -> unit
(** One-line rendering ["t=12 scan#3 segment[core 1, stop 15]"] (times
    in ticks) — for test failures and the differential harness. *)

val first_divergence :
  event list -> event list -> (int * event option * event option) option
(** [first_divergence xs ys] is [None] when the two streams are equal,
    otherwise [Some (i, x, y)]: the first position where they differ,
    with the event each side has there ([None] = that stream ended).
    The workhorse of the engine-vs-oracle differential tests
    (doc/SIMULATOR.md): compare {!events} of two runs and report the
    exact first mismatching schedule event. *)

val chrome_events : t -> pid:int -> string list
(** The schedule as pre-rendered Chrome trace-event JSON objects (one
    per string) under process id [pid]: process/thread metadata naming
    the process ["simulated schedule"] and one thread ["core m"] per
    core, ["X"] slices for segments, ["s"]/["f"] flow pairs for
    migrations, instant events for releases, preemptions and deadline
    misses. Feed to {!Hydra_obs.chrome_trace} via [~extra] to share a
    file with the analysis spans (use a [pid] distinct from the spans'
    pid 0), or wrap with {!to_chrome} for a standalone file. *)

val to_chrome : t -> string
(** A standalone Chrome trace JSON document
    ([{"traceEvents":[...]}], pid 1). *)

val write_chrome : t -> path:string -> unit
(** {!to_chrome} plus a trailing newline to a file.
    @raise Sys_error on I/O failure. *)
