(* hydra-experiments: regenerate every table and figure of the paper.

   Subcommands: tables, fig5, fig6, fig7a, fig7b, ablation, all.
   Each takes --seed and scale parameters so the committed
   EXPERIMENTS.md numbers are reproducible exactly. *)

open Cmdliner

let std = Format.std_formatter

(* "sweep M=2" -> "sweep_m_2": phase labels double as span metric
   names (phase.<slug>), which keeps to the dot-separated lowercase
   catalog convention. *)
let slug label =
  String.map
    (fun c ->
      match Char.lowercase_ascii c with
      | ('a' .. 'z' | '0' .. '9') as c -> c
      | _ -> '_')
    label

(* Phase timings go to stderr: stdout must stay byte-identical across
   --jobs values (the determinism contract, doc/PARALLELISM.md). The
   monotonic clock (Hydra_obs.now_ns) rather than wall-clock time, so
   durations survive clock steps — and rule D1 of [dune build @lint]
   stays clean (doc/STATIC_ANALYSIS.md). Each phase is also a real
   [phase.<slug>] span in the registry (span {e counts} are
   deterministic, so snapshots stay byte-identical; durations are only
   exported under --trace-out). *)
let timed ?obs ~jobs label f =
  let t0 = Hydra_obs.now_ns () in
  let r = Hydra_obs.span obs ("phase." ^ slug label) f in
  Format.eprintf "[time] %-24s %8.2f s  (jobs=%d)@." label
    (float_of_int (Hydra_obs.now_ns () - t0) /. 1e9)
    jobs;
  r

(* Values that would only fail once the run is over (an output file
   in a missing directory) or deep inside it (a count below 1) are
   usage errors instead: cmdliner exits 124 naming the flag, before
   any work runs. *)

(* counts and sizes; cmdliner's [int] parser for everything else *)
let pos_int =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n >= 1 -> Ok n
    | Ok _ -> Error (`Msg (Printf.sprintf "%s is not a positive integer" s))
    | Error _ as e -> e
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

(* a file written when the command finishes *)
let out_file =
  let parse path =
    let dir = Filename.dirname path in
    if Sys.file_exists dir && Sys.is_directory dir then Ok path
    else Error (`Msg (Printf.sprintf "no directory '%s'" dir))
  in
  Arg.conv ~docv:"FILE" (parse, Format.pp_print_string)

let metrics_arg =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Collect Hydra_obs metrics (fixed-point iterations,                  binary-search probes, simulator schedule events, spans)                  and print a summary table on stderr when the command                  finishes. Never changes stdout or any result                  (doc/OBSERVABILITY.md).")

let trace_out_arg =
  Arg.(value & opt (some out_file) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Write the spans of the run (and, for fig5, the simulated                  per-core schedule; for serve, every request's span tree                  with cross-domain flow arrows) as Chrome trace-event JSON                  to FILE (open in Perfetto or chrome://tracing). Implies                  collection; stdout and --metrics-out are unaffected.")

let metrics_out_arg =
  Arg.(value & opt (some out_file) None
       & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"Write a machine-readable metrics snapshot (schema                  hydra_c.metrics/1: counters, distributions, latency                  histograms with quantiles, span counts) as JSON to FILE.                  Deterministic: byte-identical for every --jobs value.                  Implies collection; stdout is unaffected                  (doc/OBSERVABILITY.md).")

(* One Hydra_obs registry per command invocation, created only when
   --metrics, --trace-out or --metrics-out asks for it: the [None]
   default keeps every instrumented code path a no-op. The summary
   goes to stderr and the trace/snapshot to files so stdout stays
   byte-identical to an uninstrumented run (the determinism contract,
   doc/PARALLELISM.md). [sched_log], when given (fig5 + --trace-out),
   contributes the simulated schedule as a second Perfetto process
   (pid 1) in the same trace file. *)
let with_obs ?sched_log ~metrics ~trace_out ~metrics_out f =
  if (not metrics) && trace_out = None && metrics_out = None then f None
  else begin
    let obs = Hydra_obs.create () in
    Fun.protect
      ~finally:(fun () ->
        if metrics then Hydra_obs.pp_summary Format.err_formatter obs;
        (match metrics_out with
        | Some path ->
            Hydra_obs.Snapshot.write obs ~path;
            Format.eprintf "[obs] wrote metrics snapshot to %s@." path
        | None -> ());
        match trace_out with
        | Some path ->
            let extra =
              match sched_log with
              | Some log -> Sim.Event_log.chrome_events log ~pid:1
              | None -> []
            in
            Hydra_obs.write_chrome_trace ~extra obs ~path;
            Format.eprintf "[obs] wrote Chrome trace to %s@." path
        | None -> ())
      (fun () -> f (Some obs))
  end

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
         ~doc:"PRNG seed (splitmix64).")

let jobs_arg =
  let raw =
    Arg.(value & opt int (Parallel.Pool.default_jobs ())
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Worker domains for sweep-shaped experiments (1 = plain \
                   sequential loop). Results are identical for every value; \
                   defaults to the machine's recommended domain count minus \
                   one. See doc/PARALLELISM.md.")
  in
  (* clamp here so the [time] lines report the effective value *)
  Term.(const (max 1) $ raw)

let trials_arg =
  Arg.(value & opt pos_int 35 & info [ "trials" ] ~docv:"N"
         ~doc:"Rover trials (the paper uses 35).")

let horizon_arg =
  Arg.(value & opt pos_int 45000 & info [ "horizon" ] ~docv:"TICKS"
         ~doc:"Simulation horizon in ms (the paper observes 45 s).")

let per_group_arg =
  Arg.(value & opt pos_int 250 & info [ "tasksets-per-group" ] ~docv:"N"
         ~doc:"Synthetic tasksets per utilization group (paper: 250).")

let cores_arg =
  Arg.(value & opt (list pos_int) [ 2; 4 ] & info [ "cores" ] ~docv:"M,..."
         ~doc:"Core counts to sweep (paper: 2 and 4).")

let policy_arg =
  let policy_conv =
    Arg.enum
      [ ("top-delta", Hydra.Analysis.Top_delta);
        ("exhaustive", Hydra.Analysis.Exhaustive) ]
  in
  Arg.(value & opt policy_conv Hydra.Analysis.Top_delta
       & info [ "carry-in" ] ~docv:"POLICY"
           ~doc:"Carry-in handling: top-delta (polynomial bound) or \
                 exhaustive (literal Eq. 8).")

let run_tables () = Experiments.Tables.render_all std ()

let deploy_arg =
  let deploy_conv =
    Arg.enum
      [ ("tmax", Experiments.Fig5.Tmax); ("adapted", Experiments.Fig5.Adapted) ]
  in
  Arg.(value & opt deploy_conv Experiments.Fig5.Tmax
       & info [ "deploy" ] ~docv:"MODE"
           ~doc:"Security periods deployed on the rover: tmax (designer \
                 bounds, the paper's demo) or adapted (each scheme's \
                 selected periods).")

let dat_dir_arg =
  Arg.(value & opt (some string) None & info [ "dat-dir" ] ~docv:"DIR"
         ~doc:"Also export gnuplot-ready .dat files (and plots.gp) to DIR.")

let export dat_dir f =
  match dat_dir with
  | None -> ()
  | Some dir ->
      let path = f ~dir in
      Format.printf "[export] wrote %s@." path

let run_fig5 jobs seed trials horizon deployment dat_dir metrics
    trace_out metrics_out =
  (* The schedule log only exists when a trace file was requested; it
     records trial 0's HYDRA-C run on the rover's cores. *)
  let sched_log =
    match trace_out with
    | None -> None
    | Some _ ->
        let ts = Security.Rover.taskset () in
        Some (Sim.Event_log.create ~n_cores:ts.Rtsched.Task.n_cores)
  in
  with_obs ?sched_log ~metrics ~trace_out ~metrics_out
  @@ fun obs ->
  let report =
    timed ?obs ~jobs "fig5" (fun () ->
        Experiments.Fig5.run ~seed ~trials ~horizon ~deployment ~jobs ?obs
          ?sched_log ())
  in
  Experiments.Fig5.render std report;
  export dat_dir (fun ~dir -> Experiments.Dat_export.fig5 ~dir report)

let sweeps ?obs jobs policy seed per_group cores =
  List.map
    (fun m ->
      Format.printf "[sweep] M=%d: %d tasksets x 10 groups...@." m per_group;
      timed ?obs ~jobs
        (Printf.sprintf "sweep M=%d" m)
        (fun () ->
          Experiments.Sweep.run ~policy ?obs ~n_cores:m ~per_group ~seed
            ~jobs ()))
    cores

let run_fig6 jobs policy seed per_group cores dat_dir metrics trace_out
    metrics_out =
  with_obs ~metrics ~trace_out ~metrics_out
  @@ fun obs ->
  sweeps ?obs jobs policy seed per_group cores
  |> List.iter (fun sweep ->
         let fig = Experiments.Fig6.of_sweep sweep in
         Experiments.Fig6.render std fig;
         export dat_dir (fun ~dir -> Experiments.Dat_export.fig6 ~dir fig));
  export dat_dir (fun ~dir -> Experiments.Dat_export.gnuplot_script ~dir ~cores)

let run_fig7 which jobs policy seed per_group cores dat_dir metrics
    trace_out metrics_out =
  with_obs ~metrics ~trace_out ~metrics_out
  @@ fun obs ->
  sweeps ?obs jobs policy seed per_group cores
  |> List.iter (fun sweep ->
         let fig = Experiments.Fig7.of_sweep sweep in
         (match which with
         | `A ->
             Experiments.Fig7.render_a std fig;
             export dat_dir (fun ~dir -> Experiments.Dat_export.fig7a ~dir fig)
         | `B ->
             Experiments.Fig7.render_b std fig;
             export dat_dir (fun ~dir -> Experiments.Dat_export.fig7b ~dir fig)
         | `Both ->
             Experiments.Fig7.render_a std fig;
             Experiments.Fig7.render_b std fig;
             export dat_dir (fun ~dir -> Experiments.Dat_export.fig7a ~dir fig);
             export dat_dir (fun ~dir -> Experiments.Dat_export.fig7b ~dir fig)));
  export dat_dir (fun ~dir -> Experiments.Dat_export.gnuplot_script ~dir ~cores)

let run_ablation jobs seed per_group cores metrics trace_out metrics_out =
  with_obs ~metrics ~trace_out ~metrics_out
  @@ fun obs ->
  timed ?obs ~jobs "ablation" (fun () ->
      Experiments.Ablation.run_all ~jobs ?obs std ~seed ~per_group ~cores)

let run_analyze policy file =
  match Rtsched.Taskset_io.load file with
  | Error msg ->
      Format.printf "error: %s@." msg;
      exit 1
  | Ok ts -> (
      Format.printf "%a@." Rtsched.Task.pp_taskset ts;
      match Rtsched.Partition.partition_rt ts with
      | None ->
          Format.printf "RT tasks are not partitionable on %d cores@."
            ts.Rtsched.Task.n_cores;
          exit 2
      | Some rt_assignment ->
          Format.printf "RT partition (best-fit):@.";
          Array.iteri
            (fun i t ->
              Format.printf "  %-16s -> core %d@." t.Rtsched.Task.rt_name
                rt_assignment.(i))
            ts.Rtsched.Task.rt;
          let sys = Hydra.Analysis.make_system ts ~assignment:rt_assignment in
          (match Hydra.Period_selection.select ~policy sys ts.Rtsched.Task.sec
           with
          | Hydra.Period_selection.Schedulable assignments ->
              Format.printf "@.HYDRA-C periods:@.";
              List.iter
                (fun (a : Hydra.Period_selection.assignment) ->
                  Format.printf "  %-16s T* = %6d (bound %6d, WCRT %6d)@."
                    a.sec.Rtsched.Task.sec_name a.period
                    a.sec.Rtsched.Task.sec_period_max a.resp)
                assignments
          | Hydra.Period_selection.Unschedulable -> (
              Format.printf
                "@.unschedulable within the designer bounds under the given \
                 priorities.@.";
              match Hydra.Priority_assignment.first_schedulable ~policy sys
                      ts.Rtsched.Task.sec
              with
              | Some (ordering, assignments) ->
                  Format.printf
                    "a schedulable priority order exists: %s@."
                    (Hydra.Priority_assignment.ordering_name ordering);
                  List.iter
                    (fun (a : Hydra.Period_selection.assignment) ->
                      Format.printf "  %-16s T* = %6d (WCRT %6d)@."
                        a.sec.Rtsched.Task.sec_name a.period a.resp)
                    assignments
              | None ->
                  Format.printf "no candidate priority order schedules it@."));
          Format.printf "@.Scheme comparison:@.";
          List.iter
            (fun scheme ->
              let o = Hydra.Scheme.evaluate ~policy scheme ts ~rt_assignment in
              Format.printf "  %-12s schedulable=%b@."
                (Hydra.Scheme.name scheme) o.Hydra.Scheme.schedulable)
            Hydra.Scheme.all;
          Format.printf "@.%a@." Hydra.Sensitivity.render
            (Hydra.Sensitivity.analyze ~policy sys ts.Rtsched.Task.sec))

let run_report jobs seed trials per_group cores out metrics trace_out
    metrics_out =
  with_obs ~metrics ~trace_out ~metrics_out
  @@ fun obs ->
  let scale =
    { Experiments.Report.sc_seed = seed; sc_trials = trials;
      sc_per_group = per_group; sc_cores = cores;
      sc_validate_tasksets = 50 }
  in
  timed ?obs ~jobs "report" (fun () ->
      Experiments.Report.write ~jobs ?obs scale ~path:out);
  Format.printf "wrote %s@." out

let run_validate jobs policy seed tasksets cores metrics trace_out
    metrics_out =
  with_obs ~metrics ~trace_out ~metrics_out
  @@ fun obs ->
  List.iter
    (fun n_cores ->
      Format.printf "[validate] M=%d, %d tasksets...@." n_cores tasksets;
      let result =
        timed ?obs ~jobs
          (Printf.sprintf "validate M=%d" n_cores)
          (fun () ->
            Experiments.Validation.run ~policy ?obs ~n_cores
              ~tasksets ~seed ~jobs ())
      in
      Experiments.Validation.render std result)
    cores

let run_all jobs policy seed trials horizon per_group cores
    dat_dir metrics trace_out metrics_out =
  with_obs ~metrics ~trace_out ~metrics_out
  @@ fun obs ->
  let t0 = Hydra_obs.now_ns () in
  run_tables ();
  let fig5_under deployment =
    let report =
      timed ?obs ~jobs "fig5" (fun () ->
          Experiments.Fig5.run ~seed ~trials ~horizon ~deployment ~jobs ?obs
            ())
    in
    Experiments.Fig5.render std report;
    export dat_dir (fun ~dir -> Experiments.Dat_export.fig5 ~dir report)
  in
  fig5_under Experiments.Fig5.Tmax;
  fig5_under Experiments.Fig5.Adapted;
  sweeps ?obs jobs policy seed per_group cores
  |> List.iter (fun sweep ->
         let fig6 = Experiments.Fig6.of_sweep sweep in
         Experiments.Fig6.render std fig6;
         export dat_dir (fun ~dir -> Experiments.Dat_export.fig6 ~dir fig6);
         let fig = Experiments.Fig7.of_sweep sweep in
         Experiments.Fig7.render_a std fig;
         Experiments.Fig7.render_b std fig;
         export dat_dir (fun ~dir -> Experiments.Dat_export.fig7a ~dir fig);
         export dat_dir (fun ~dir -> Experiments.Dat_export.fig7b ~dir fig));
  export dat_dir (fun ~dir -> Experiments.Dat_export.gnuplot_script ~dir ~cores);
  timed ?obs ~jobs "ablation" (fun () ->
      Experiments.Ablation.run_all ~jobs ?obs std ~seed
        ~per_group:(max 1 (per_group / 5))
        ~cores);
  Format.eprintf "[time] %-24s %8.2f s  (jobs=%d)@." "total"
    (float_of_int (Hydra_obs.now_ns () - t0) /. 1e9)
    jobs

(* Default command (no subcommand): a fixed-scale smoke workload that
   touches both the analysis stack (sweep -> Algorithm 1 -> Eq. 7
   fixed points) and the simulator (validation runs), so
   [hydra-experiments --jobs 4 --metrics --trace-out t.json] exercises
   and exports every metric family while keeping stdout identical to a
   plain [hydra-experiments --jobs 1] run. *)
let run_smoke jobs metrics trace_out metrics_out =
  with_obs ~metrics ~trace_out ~metrics_out
  @@ fun obs ->
  Format.printf "[smoke] fixed-scale smoke workload (M=2, seed 42)@.";
  let sweep =
    timed ?obs ~jobs "smoke sweep" (fun () ->
        Experiments.Sweep.run ?obs ~n_cores:2 ~per_group:8 ~seed:42
          ~jobs ())
  in
  Experiments.Fig7.render_a std (Experiments.Fig7.of_sweep sweep);
  let result =
    timed ?obs ~jobs "smoke validate" (fun () ->
        Experiments.Validation.run ?obs ~n_cores:2 ~tasksets:10
          ~seed:42 ~jobs ())
  in
  Experiments.Validation.render std result

let cmd_tables =
  Cmd.v (Cmd.info "tables" ~doc:"Render Tables 1-3.")
    Term.(const run_tables $ const ())

let cmd_fig5 =
  Cmd.v (Cmd.info "fig5" ~doc:"Rover detection-latency experiment (Fig. 5).")
    Term.(const run_fig5 $ jobs_arg $ seed_arg $ trials_arg
          $ horizon_arg $ deploy_arg $ dat_dir_arg $ metrics_arg
          $ trace_out_arg $ metrics_out_arg)

let cmd_fig6 =
  Cmd.v (Cmd.info "fig6" ~doc:"Period-distance sweep (Fig. 6).")
    Term.(const run_fig6 $ jobs_arg $ policy_arg $ seed_arg
          $ per_group_arg $ cores_arg $ dat_dir_arg $ metrics_arg
          $ trace_out_arg $ metrics_out_arg)

let cmd_fig7a =
  Cmd.v (Cmd.info "fig7a" ~doc:"Acceptance-ratio sweep (Fig. 7a).")
    Term.(const (run_fig7 `A) $ jobs_arg $ policy_arg $ seed_arg
          $ per_group_arg $ cores_arg $ dat_dir_arg $ metrics_arg
          $ trace_out_arg $ metrics_out_arg)

let cmd_fig7b =
  Cmd.v (Cmd.info "fig7b" ~doc:"Period-difference sweep (Fig. 7b).")
    Term.(const (run_fig7 `B) $ jobs_arg $ policy_arg $ seed_arg
          $ per_group_arg $ cores_arg $ dat_dir_arg $ metrics_arg
          $ trace_out_arg $ metrics_out_arg)

let tasksets_arg =
  Arg.(value & opt pos_int 100 & info [ "tasksets" ] ~docv:"N"
         ~doc:"Tasksets to cross-validate.")

let file_arg =
  Arg.(required & pos 0 (some file) None
       & info [] ~docv:"FILE" ~doc:"Taskset file (see Rtsched.Taskset_io).")

let cmd_analyze =
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Analyze a user-provided taskset file: partition, period \
             selection, scheme comparison, WCET sensitivity.")
    Term.(const run_analyze $ policy_arg $ file_arg)

let out_arg =
  Arg.(value & opt out_file "report.md" & info [ "out" ] ~docv:"PATH"
         ~doc:"Output path for the Markdown report.")

let cmd_report =
  Cmd.v
    (Cmd.info "report"
       ~doc:"Regenerate every artifact and write a Markdown report.")
    Term.(const run_report $ jobs_arg $ seed_arg $ trials_arg $ per_group_arg
          $ cores_arg $ out_arg $ metrics_arg $ trace_out_arg
          $ metrics_out_arg)

let cmd_validate =
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Cross-validate the HYDRA-C analysis against the discrete-event \
             simulator (soundness + tightness).")
    Term.(const run_validate $ jobs_arg $ policy_arg $ seed_arg
          $ tasksets_arg $ cores_arg $ metrics_arg $ trace_out_arg
          $ metrics_out_arg)

let cmd_ablation =
  Cmd.v
    (Cmd.info "ablation"
       ~doc:"Ablations: carry-in policy, partitioning heuristic, priority \
             order.")
    Term.(const run_ablation $ jobs_arg $ seed_arg $ per_group_arg
          $ cores_arg $ metrics_arg $ trace_out_arg
          $ metrics_out_arg)

let cmd_all =
  Cmd.v (Cmd.info "all" ~doc:"Everything: tables, figures, ablations.")
    Term.(const run_all $ jobs_arg $ policy_arg $ seed_arg $ trials_arg
          $ horizon_arg $ per_group_arg $ cores_arg $ dat_dir_arg
          $ metrics_arg $ trace_out_arg $ metrics_out_arg)

(* --------------------------------------------------------------- *)
(* obs-report: offline consumer of the snapshot artifacts.

   Exit codes: 0 = ok, 1 = a watched metric regressed past
   --max-regression, 2 = unreadable/malformed input, a gate with
   nothing to diff, or --watch without --max-regression (cmdliner
   itself uses 124/125 for CLI errors). Output is deterministic
   (sorted keys, fixed columns), so CI can diff it. *)

(* One obs_snapshot request against a live daemon: the scrape path of
   'obs-report --connect'. Scrapes leave no footprint in the daemon's
   registry, so a live summary taken mid-run matches the eventual
   --metrics-out snapshot of the same workload. *)
let fetch_live_snapshot socket =
  let module P = Hydra_server.Protocol in
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match
        Unix.connect fd (Unix.ADDR_UNIX socket);
        P.write_frame fd
          (P.encode_request { P.q_id = 0; q_tenant = ""; q_op = P.Obs_snapshot });
        P.read_frame fd
      with
      | None -> Error "daemon closed the connection before responding"
      | Some payload -> (
          let r = P.decode_response payload in
          match r.P.p_body with
          | P.Metrics doc -> (
              match Hydra_obs.Report.of_string doc with
              | snap -> Ok snap
              | exception Hydra_obs.Json.Error m -> Error m)
          | _ ->
              Error
                (match r.P.p_reason with
                | Some m -> m
                | None -> "unexpected response body"))
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
      | exception P.Protocol_error m -> Error m)

let run_obs_report files max_regression watch all_rows connect =
  let fail msg =
    Format.eprintf "obs-report: %s@." msg;
    exit 2
  in
  let load path =
    match Hydra_obs.Report.load path with
    | Ok snap -> snap
    | Error msg -> fail msg
  in
  let live socket =
    match fetch_live_snapshot socket with
    | Ok snap -> snap
    | Error msg -> fail (socket ^ ": " ^ msg)
  in
  let watch_pred key =
    watch = [] || List.exists (fun p -> String.starts_with ~prefix:p key) watch
  in
  let diff_and_gate before after =
    let changes = Hydra_obs.Report.diff before after in
    Format.printf "%a" (Hydra_obs.Report.pp_diff ~only_changed:(not all_rows))
      changes;
    match max_regression with
    | None -> ()
    | Some threshold_pct ->
        let bad =
          Hydra_obs.Report.regressions ~watch:watch_pred ~threshold_pct
            changes
        in
        if bad <> [] then begin
          Format.printf "@.%d metric(s) regressed more than %+.1f%%:@."
            (List.length bad) threshold_pct;
          List.iter
            (fun (c : Hydra_obs.Report.change) ->
              let pct =
                match Hydra_obs.Report.pct_change c with
                | Some p when Float.is_finite p -> Format.asprintf "%+.1f%%" p
                | _ -> "+inf"
              in
              Format.printf "  %-42s %9s@." c.key pct)
            bad;
          exit 1
        end
  in
  let inputs =
    List.length files + Option.fold ~none:0 ~some:(fun _ -> 1) connect
  in
  if inputs = 1 && (max_regression <> None || watch <> []) then
    fail "--max-regression and --watch gate a diff: give two inputs \
          (two files, or one file and --connect)";
  if watch <> [] && max_regression = None then
    fail "--watch narrows the --max-regression gate: give --max-regression";
  match (connect, files) with
  | Some socket, [] ->
      Format.printf "%a" Hydra_obs.Report.pp_summary (live socket)
  | Some socket, [ before_path ] ->
      (* before = the file, after = the daemon's state right now *)
      diff_and_gate (load before_path) (live socket)
  | Some _, _ ->
      fail "with --connect: at most one snapshot file (the 'before' side)"
  | None, [ path ] ->
      Format.printf "%a" Hydra_obs.Report.pp_summary (load path)
  | None, [ before_path; after_path ] ->
      diff_and_gate (load before_path) (load after_path)
  | None, _ ->
      fail "expected one snapshot file (summary) or two (diff)"

let report_files_arg =
  Arg.(value & pos_all string []
       & info [] ~docv:"FILE"
           ~doc:"hydra_c.metrics/1 snapshots (--metrics-out). One file \
                 renders a summary; two render the diff (first = before, \
                 second = after).")

let max_regression_arg =
  Arg.(value & opt (some float) None
       & info [ "max-regression" ] ~docv:"PCT"
           ~doc:"With two inputs (two files, or one file and --connect): \
                 exit 1 if any watched metric increased by more than PCT \
                 percent (a metric appearing out of nowhere counts as an \
                 infinite increase); with one input, exit 2. Without this \
                 option the diff is informational only.")

let watch_arg =
  Arg.(value & opt_all string []
       & info [ "watch" ] ~docv:"PREFIX"
           ~doc:"Restrict the --max-regression gate to metrics whose \
                 flattened key starts with PREFIX (repeatable; default: \
                 all metrics). E.g. --watch analysis. --watch sim.events. \
                 Requires --max-regression: without it, exit 2.")

let all_rows_arg =
  Arg.(value & flag
       & info [ "all" ]
           ~doc:"In a diff, also print rows whose value did not change.")

let connect_arg =
  Arg.(value & opt (some string) None
       & info [ "connect" ] ~docv:"SOCKET"
           ~doc:"Scrape a live daemon instead of reading a file: send one                  obs_snapshot request to the Unix-domain SOCKET of a                  running 'hydra_c serve' and summarize the reply. With one                  FILE, diff FILE (before) against the live state (after);                  --max-regression gates the diff as usual. The scrape                  leaves no footprint in the daemon's metrics.")

let cmd_obs_report =
  Cmd.v
    (Cmd.info "obs-report"
       ~doc:"Summarize or diff --metrics-out snapshots, or scrape a live \
             daemon with --connect: deterministic tables, plus a \
             threshold-gated exit code for CI regression checks.")
    Term.(const run_obs_report $ report_files_arg $ max_regression_arg
          $ watch_arg $ all_rows_arg $ connect_arg)

(* ------------------------------------------------------------------ *)
(* serve: the online admission-control daemon (doc/SERVER.md) *)

let run_serve socket jobs slow_request_ms flight_out metrics trace_out
    metrics_out =
  with_obs ~metrics ~trace_out ~metrics_out
    (fun obs ->
      let config =
        { Hydra_server.Daemon.socket_path = socket; jobs;
          trace = trace_out <> None; slow_request_ms; flight_path = flight_out }
      in
      let log = Hydra_obs.Log.create () in
      Hydra_obs.Log.log log "listening"
        [ ("socket", socket); ("jobs", string_of_int jobs) ];
      (* a daemon always carries a registry, so obs_snapshot scrapes
         have something to answer even without --metrics* flags (the
         local registry is simply never written anywhere) *)
      let obs = match obs with Some o -> o | None -> Hydra_obs.create () in
      Hydra_server.Daemon.serve ~obs ~config ())

let socket_arg =
  Arg.(value & opt string "hydra_c.sock"
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket to listen on (stale files are                  unlinked; the file is removed again on shutdown).")

let slow_request_ms_arg =
  Arg.(value & opt int 0
       & info [ "slow-request-ms" ] ~docv:"MS"
           ~doc:"Treat a request batch slower than MS milliseconds as an                  incident: log a rate-limited warning and dump the flight                  recorder. 0 (the default) disables the detector.")

let flight_out_arg =
  Arg.(value & opt (some string) None
       & info [ "flight-out" ] ~docv:"FILE"
           ~doc:"Write flight-recorder dumps (hydra_c.flight/1 JSONL) to                  FILE, including one at clean shutdown. Without this                  option dumps go to SOCKET.flight.jsonl and happen only on                  SIGUSR1, a crash, or a slow request.")

let cmd_serve =
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the admission-control daemon: tenant systems stay resident                (workload caches, warm-start state, last selection) and                reconfiguration requests (RT/security task arrive/leave,                core-count change, re-select) stream over a Unix-domain                socket speaking length-prefixed hydra_c.server/1 JSON                (doc/SERVER.md). Stop it with a 'shutdown' request. Scrape                it live with 'hydra_c obs-report --connect SOCKET'; send                SIGUSR1 for a flight-recorder dump.")
    Term.(const run_serve $ socket_arg $ jobs_arg $ slow_request_ms_arg
          $ flight_out_arg $ metrics_arg $ trace_out_arg $ metrics_out_arg)

let smoke_term =
  Term.(const run_smoke $ jobs_arg $ metrics_arg
          $ trace_out_arg $ metrics_out_arg)

let () =
  let info =
    Cmd.info "hydra-experiments"
      ~doc:"Reproduce the evaluation of 'Period Adaptation for Continuous \
            Security Monitoring in Multicore Real-Time Systems' (DATE 2020). \
            Without a subcommand, runs a fixed-scale smoke workload \
            (useful with --metrics/--trace-out)."
  in
  exit
    (Cmd.eval
       (Cmd.group ~default:smoke_term info
          [ cmd_tables; cmd_fig5; cmd_fig6; cmd_fig7a; cmd_fig7b;
            cmd_ablation; cmd_validate; cmd_analyze; cmd_report;
            cmd_serve; cmd_obs_report; cmd_all ]))
