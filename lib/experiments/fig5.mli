(** Fig. 5: the rover case study. For each trial, both intrusions of
    Sec. 5.1.3 — (i) shellcode tampering the image data-store, caught
    by the Tripwire task, and (ii) a rootkit module insertion, caught
    by the kernel-module checker — are injected at random instants
    into two simulations of the same rover taskset: HYDRA-C
    (semi-partitioned, periods from Algorithm 1) and HYDRA
    (fully-partitioned, greedy per-core periods). Fig. 5a reports the
    detection latencies, Fig. 5b the context switches over the run.
    Attack instants are shared between the two schemes within a trial
    (paired comparison). *)

type quantiles = { q50 : int; q95 : int; q99 : int; qmax : int }
(** p50/p95/p99/max of a latency sample, read from a
    {!Hydra_obs.Histogram} built over the trials (so the printed
    quantiles agree exactly with the [--metrics-out] snapshot's). *)

type scheme_report = {
  label : string;
  periods : int array;  (** selected periods by [sec_id] *)
  mean_detect_tripwire : float;  (** mean detection latency, ticks (ms) *)
  mean_detect_kmod : float;
  detect_tripwire_q : quantiles option;
      (** over detected trials; [None] when none detected *)
  detect_kmod_q : quantiles option;
  undetected : int;  (** attacks not detected within the horizon *)
  mean_context_switches : float;
  mean_migrations : float;
  rt_deadline_misses : int;  (** total across trials; must be 0 *)
  sec_deadline_misses : int;
}

type deployment =
  | Tmax
      (** both schemes run the security tasks at their designer bounds
          [T_s^max] — Fig. 5 then isolates the migration-vs-pinning
          effect the rover demo showcases; the paper's reported
          detection magnitudes (≈ 1.7 x T_max in cycle counts) match
          this deployment *)
  | Adapted
      (** each scheme deploys the periods its own analysis selects
          (Algorithm 1 for HYDRA-C, greedy per-core minimization for
          HYDRA) — the full pipeline, reported as a variant in
          EXPERIMENTS.md *)

type report = {
  trials : int;
  horizon : int;
  deployment : deployment;
  hydra_c : scheme_report;
  hydra : scheme_report;
  detection_speedup_pct : float;
      (** mean over trials and both attack kinds of
          [(hydra - hydra_c) / hydra * 100]; the paper reports 19.05 *)
  context_switch_ratio : float;
      (** HYDRA-C / HYDRA mean context switches; the paper reports 1.75 *)
}

val run :
  ?seed:int -> ?trials:int -> ?horizon:int -> ?deployment:deployment ->
  ?overheads:Sim.Engine.overheads -> ?jobs:int -> ?obs:Hydra_obs.t ->
  ?sched_log:Sim.Event_log.t -> unit -> report
(** Defaults: seed 42, 35 trials (as the paper), horizon 45000 ticks
    (the paper's 45 s observation window), deployment {!Tmax}, zero
    overheads (the paper's assumption; non-zero values feed the X4
    ablation). [jobs] (default {!Parallel.Pool.default_jobs}[ ()])
    simulates trials on that many domains; each trial owns a pre-split
    RNG stream, so the report is identical for any [jobs] value
    (doc/PARALLELISM.md). [obs] wraps the experiment in a [fig5.run]
    span and each trial in a [fig5.trial] span, forwards to the
    simulator's schedule-event counters, and samples per-scheme,
    per-monitor-class latency histograms
    ([security.latency.*], [security.detection_latency.*] — see
    doc/OBSERVABILITY.md). [sched_log] records the complete per-job
    schedule of {e trial 0's HYDRA-C run} (a single deterministic
    writer regardless of [jobs]) for Chrome-trace export — the CLI's
    [--trace-out] backend. *)

val render : Format.formatter -> report -> unit
