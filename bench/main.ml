(* Benchmark harness: one Bechamel test per paper table/figure (plus
   the ablations), and — before timing — a reduced-scale regeneration
   of every artifact so that `dune exec bench/main.exe` prints the
   same rows/series the paper reports.

   Full-scale regeneration (paper-sized parameters) is the CLI's job:
   `dune exec bin/hydra_experiments.exe -- all --tasksets-per-group 250`.

   Scale knobs (environment variables):
     BENCH_PER_GROUP   tasksets per utilization group for the printed
                       sweeps (default 25; the paper uses 250)
     BENCH_TRIALS      rover trials for the printed Fig. 5 (default 35)
     BENCH_QUOTA_MS    Bechamel time quota per test (default 500)
     BENCH_JOBS        worker domains for the printed artifacts and the
                       parallel half of the seq-vs-par comparison
                       (default: Parallel.Pool.default_jobs (), i.e.
                       recommended_domain_count - 1; results are
                       identical for any value — doc/PARALLELISM.md).

   Besides the printed output, the harness writes BENCH_sweep.json
   (schema "hydra_c.bench_sweep/1") in the working directory — the
   machine-readable record of the seq-vs-par comparison sweep:

     {
       "schema": "hydra_c.bench_sweep/1",
       "jobs": N,                  -- BENCH_JOBS (parallel run)
       "seq_wall_ns": ns,          -- wall clock of the sweep at jobs=1
       "par_wall_ns": ns,          -- wall clock of the same sweep at jobs=N
       "speedup": x,               -- seq_wall_ns / par_wall_ns
       "counters_match_across_jobs": bool,
                                   -- Hydra_obs counter totals (fixed-point
                                      iterations, search probes, ...) equal
                                      between the two runs: the analytical
                                      work is identical, only the wall
                                      clock moves (doc/PARALLELISM.md)
       "counters": { "name": total, ... }
                                   -- Hydra_obs counters of the jobs=N run
                                      (catalog: doc/OBSERVABILITY.md)
     }

   It also writes BENCH_metrics.json — the full Hydra_obs snapshot of
   the parallel comparison run (schema "hydra_c.metrics/1", the same
   format as the CLI's --metrics-out; doc/OBSERVABILITY.md) — and
   BENCH_analysis.json (schema "hydra_c.bench_analysis/1";
   knobs BENCH_ANALYSIS_TASKSETS / _CORES / _SEED) — the comparison of
   the WCRT analysis against its test-only reference implementation
   (test/oracle) at both carry-in policies,
   with a results_match bit and the cache/pruning counters; see
   bench/analysis_record.ml and doc/PERFORMANCE.md.
   bench/analysis_bench.exe emits just that file (the CI gate).
   BENCH_sim.json (schema "hydra_c.bench_sim/1"; knobs BENCH_SIM_...)
   is the simulator-side counterpart -- the engine vs the reference
   stepper over the rover, validation and campaign workloads with per-workload
   results_match bits; see bench/sim_record.ml and doc/SIMULATOR.md.
   bench/sim_bench.exe emits just that file (the CI gate). *)

open Bechamel
open Toolkit

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some v -> ( match int_of_string_opt v with Some i -> i | None -> default)
  | None -> default

let per_group = getenv_int "BENCH_PER_GROUP" 25
let trials = getenv_int "BENCH_TRIALS" 35
let quota_ms = getenv_int "BENCH_QUOTA_MS" 500
let jobs = getenv_int "BENCH_JOBS" (Parallel.Pool.default_jobs ())

let std = Format.std_formatter

(* ------------------------------------------------------------------ *)
(* Part 1: print every table and figure at reduced scale. *)

let print_artifacts () =
  Format.printf "==================================================@.";
  Format.printf
    "Artifact regeneration (reduced scale: %d/group, %d trials, %d jobs)@."
    per_group trials jobs;
  Format.printf "==================================================@.";
  Experiments.Tables.render_all std ();
  let fig5 = Experiments.Fig5.run ~trials ~jobs () in
  Experiments.Fig5.render std fig5;
  let fig5_adapted =
    Experiments.Fig5.run ~trials ~deployment:Experiments.Fig5.Adapted ~jobs ()
  in
  Experiments.Fig5.render std fig5_adapted;
  List.iter
    (fun n_cores ->
      let sweep =
        Experiments.Sweep.run ~n_cores ~per_group ~seed:42 ~jobs ()
      in
      Experiments.Fig6.render std (Experiments.Fig6.of_sweep sweep);
      let fig7 = Experiments.Fig7.of_sweep sweep in
      Experiments.Fig7.render_a std fig7;
      Experiments.Fig7.render_b std fig7)
    [ 2; 4 ];
  Experiments.Ablation.run_all ~jobs std ~seed:42
    ~per_group:(max 1 (per_group / 5))
    ~cores:[ 2 ]

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel timings — each test regenerates one artifact at a
   small fixed scale so the numbers compare machine-to-machine. *)

let rover_taskset = Security.Rover.taskset ()
let rover_assignment = Security.Rover.rt_assignment ()

let rover_system () =
  Hydra.Analysis.make_system rover_taskset ~assignment:rover_assignment

let test_table1 =
  Test.make ~name:"table1_catalog"
    (Staged.stage (fun () ->
         Format.asprintf "%a" Security.Catalog.pp_table ()))

let test_table2 =
  Test.make ~name:"table2_platform"
    (Staged.stage (fun () -> Format.asprintf "%a" Security.Rover.pp_table2 ()))

let test_table3 =
  Test.make ~name:"table3_taskgen"
    (Staged.stage (fun () ->
         let rng = Taskgen.Rng.create 1 in
         Taskgen.Generator.generate
           (Taskgen.Generator.default_config ~n_cores:2)
           rng ~group:4))

let test_fig5a =
  Test.make ~name:"fig5a_detection"
    (Staged.stage (fun () ->
         Experiments.Fig5.run ~seed:1 ~trials:2 ~horizon:30000 ()))

let test_fig5b =
  (* context-switch accounting alone: one 45 s rover simulation *)
  Test.make ~name:"fig5b_context_switches"
    (Staged.stage (fun () ->
         let bounds = [| 10000; 10000 |] in
         let built =
           Sim.Scenario.of_taskset rover_taskset
             ~rt_assignment:rover_assignment
             ~policy:Sim.Policy.Semi_partitioned ~sec_periods:bounds ()
         in
         Sim.Engine.run ~n_cores:2 ~horizon:45000 built.Sim.Scenario.tasks))

let small_sweep ?policy ?config n_cores =
  Experiments.Sweep.run ?policy ?config ~jobs:1 ~n_cores ~per_group:5 ~seed:1
    ()

(* Sequential-vs-parallel comparison on the same Fig. 6/7-shaped sweep:
   identical work, jobs:1 vs BENCH_JOBS domains. The speedup line
   printed after the timing table is the ratio of these two. *)
let comparison_sweep ?obs ~jobs () =
  Experiments.Sweep.run ?obs ~jobs ~n_cores:2 ~per_group:10 ~seed:3 ()

let test_sweep_seq =
  Test.make ~name:"sweep_seq_jobs1"
    (Staged.stage (fun () -> comparison_sweep ~jobs:1 ()))

let test_sweep_par =
  Test.make ~name:"sweep_par_jobsN"
    (Staged.stage (fun () -> comparison_sweep ~jobs ()))

let test_fig6 =
  Test.make ~name:"fig6_period_distance"
    (Staged.stage (fun () -> Experiments.Fig6.of_sweep (small_sweep 2)))

let test_fig7a =
  Test.make ~name:"fig7a_acceptance"
    (Staged.stage (fun () -> Experiments.Fig7.of_sweep (small_sweep 2)))

let test_fig7b =
  Test.make ~name:"fig7b_distance"
    (Staged.stage (fun () ->
         Experiments.Fig7.render_b Format.str_formatter
           (Experiments.Fig7.of_sweep (small_sweep 2));
         Format.flush_str_formatter ()))

let test_ablation_carry_in =
  Test.make ~name:"ablation_carry_in"
    (Staged.stage (fun () ->
         let config =
           { (Taskgen.Generator.default_config ~n_cores:2) with
             Taskgen.Generator.sec_count = (2, 4) }
         in
         small_sweep ~policy:Hydra.Analysis.Exhaustive ~config 2))

let test_ablation_partition =
  Test.make ~name:"ablation_partition"
    (Staged.stage (fun () ->
         let config =
           { (Taskgen.Generator.default_config ~n_cores:2) with
             Taskgen.Generator.partition_heuristic =
               Rtsched.Partition.Worst_fit }
         in
         small_sweep ~config 2))

(* Core micro-benchmarks: the analysis primitives the figures lean on. *)

let test_rta_uniproc =
  Test.make ~name:"micro_rta_uniproc"
    (Staged.stage (fun () ->
         Rtsched.Rta_uniproc.response_time
           ~hp:
             [ { Rtsched.Rta_uniproc.hp_wcet = 240; hp_period = 500 };
               { Rtsched.Rta_uniproc.hp_wcet = 1120; hp_period = 5000 } ]
           ~wcet:5342 ~limit:10000 ()))

(* One Eq. 6-8 WCRT query through the production path, cached RT
   workloads included: the system is built once, so after the first
   run every window hits the workload cache. *)
let test_wcrt_semi_partitioned =
  Test.make ~name:"micro_wcrt_semi_partitioned"
    (Staged.stage
       (let sys = rover_system () in
        fun () ->
          Hydra.Analysis.response_time sys
            ~hp:
              [ { Hydra.Analysis.hp_task = rover_taskset.Rtsched.Task.sec.(0);
                  hp_period = 7582; hp_resp = 7582 } ]
            ~wcet:223 ~limit:10000))

let test_period_selection =
  Test.make ~name:"micro_period_selection_rover"
    (Staged.stage
       (let sys = rover_system () in
        fun () ->
          Hydra.Period_selection.select sys rover_taskset.Rtsched.Task.sec))

let test_randfixedsum =
  Test.make ~name:"micro_randfixedsum_20"
    (Staged.stage
       (let rng = Taskgen.Rng.create 7 in
        fun () ->
          Taskgen.Randfixedsum.sample rng ~n:20 ~total:6.0 ~lo:0.0 ~hi:1.0))

let test_integrity_scan =
  Test.make ~name:"micro_integrity_full_scan"
    (Staged.stage
       (let fs = Security.Rover.image_store () in
        let checker = Security.Integrity_checker.create fs ~n_regions:64 in
        fun () -> Security.Integrity_checker.check_all checker))

let test_period_selection_extended =
  Test.make ~name:"micro_period_selection_extended_rover"
    (Staged.stage
       (let ts = Security.Rover.extended_taskset () in
        let sys =
          Hydra.Analysis.make_system ts ~assignment:rover_assignment
        in
        fun () -> Hydra.Period_selection.select sys ts.Rtsched.Task.sec))

let test_hydra_coordinated =
  Test.make ~name:"micro_hydra_coordinated_rover"
    (Staged.stage
       (let sys = rover_system () in
        fun () ->
          Hydra.Baseline_hydra.allocate_coordinated sys
            rover_taskset.Rtsched.Task.sec))

let test_packet_inspection =
  Test.make ~name:"micro_packet_full_inspection"
    (Staged.stage
       (let cap = Security.Packet_monitor.create_capture ~capacity:256 in
        let rng = Taskgen.Rng.create 5 in
        List.iter
          (Security.Packet_monitor.ingest cap)
          (Security.Packet_monitor.benign_traffic rng ~now:0 ~count:256);
        let mon =
          Security.Packet_monitor.create cap
            Security.Packet_monitor.default_rules ~n_regions:16
        in
        fun () -> Security.Packet_monitor.inspect_all mon))

let test_hpc_check =
  Test.make ~name:"micro_hpc_full_check"
    (Staged.stage
       (let tasks = [ "navigation"; "camera" ] in
        let stream = Security.Hpc_monitor.create_stream ~tasks in
        let rng = Taskgen.Rng.create 6 in
        let mon = Security.Hpc_monitor.calibrate rng ~tasks stream in
        for _ = 1 to 8 do
          Security.Hpc_monitor.push stream
            (Security.Hpc_monitor.clean_sample rng ~task:"navigation");
          Security.Hpc_monitor.push stream
            (Security.Hpc_monitor.clean_sample rng ~task:"camera")
        done;
        fun () -> Security.Hpc_monitor.check_all mon))

let test_sim_extended_rover =
  Test.make ~name:"micro_sim_extended_rover_45s"
    (Staged.stage
       (let ts = Security.Rover.extended_taskset () in
        let periods = Array.make (Array.length ts.Rtsched.Task.sec) 0 in
        Array.iter
          (fun (s : Rtsched.Task.sec_task) ->
            periods.(s.Rtsched.Task.sec_id) <- s.Rtsched.Task.sec_period_max)
          ts.Rtsched.Task.sec;
        let built =
          Sim.Scenario.of_taskset ts ~rt_assignment:rover_assignment
            ~policy:Sim.Policy.Semi_partitioned ~sec_periods:periods ()
        in
        fun () ->
          Sim.Engine.run ~n_cores:2 ~horizon:45000 built.Sim.Scenario.tasks))

let tests =
  Test.make_grouped ~name:"hydra_c"
    [ test_table1; test_table2; test_table3; test_fig5a; test_fig5b;
      test_fig6; test_fig7a; test_fig7b; test_ablation_carry_in;
      test_ablation_partition; test_rta_uniproc; test_wcrt_semi_partitioned;
      test_period_selection; test_period_selection_extended;
      test_hydra_coordinated; test_randfixedsum; test_integrity_scan;
      test_packet_inspection; test_hpc_check; test_sim_extended_rover;
      test_sweep_seq; test_sweep_par ]

let run_benchmarks () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.millisecond (float_of_int quota_ms))
      ~kde:None ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (t :: _) -> t
          | Some [] | None -> Float.nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  Format.printf "@.==================================================@.";
  Format.printf "Bechamel timings (per-run wall clock)@.";
  Format.printf "==================================================@.";
  Format.printf "%-42s %14s@." "benchmark" "time/run";
  List.iter
    (fun (name, ns) ->
      let pretty =
        if Float.is_nan ns then "-"
        else if ns > 1e9 then Printf.sprintf "%8.3f  s" (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%8.3f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%8.3f us" (ns /. 1e3)
        else Printf.sprintf "%8.0f ns" ns
      in
      Format.printf "%-42s %14s@." name pretty)
    rows;
  (* Parallel speedup on the comparison sweep (same records either way). *)
  let estimate suffix =
    List.find_map
      (fun (name, ns) ->
        if String.ends_with ~suffix name && not (Float.is_nan ns) then Some ns
        else None)
      rows
  in
  match (estimate "sweep_seq_jobs1", estimate "sweep_par_jobsN") with
  | Some seq, Some par when par > 0.0 ->
      Format.printf
        "@.parallel sweep speedup (jobs=%d vs jobs=1): %.2fx@." jobs
        (seq /. par)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Part 3: BENCH_sweep.json — schema documented in the file header. *)

let emit_sweep_json () =
  let timed_run ~jobs =
    let obs = Hydra_obs.create () in
    let t0 = Hydra_obs.now_ns () in
    let (_ : Experiments.Sweep.t) = comparison_sweep ~obs ~jobs () in
    (Hydra_obs.now_ns () - t0, Hydra_obs.counters obs, obs)
  in
  let seq_wall, seq_counters, _ = timed_run ~jobs:1 in
  let par_wall, par_counters, par_obs = timed_run ~jobs in
  (* Full registry snapshot of the parallel run (counters, selected-
     period histograms, span counts) — same schema as the CLI's
     --metrics-out. *)
  Hydra_obs.Snapshot.write par_obs ~path:"BENCH_metrics.json";
  let speedup =
    if par_wall > 0 then float_of_int seq_wall /. float_of_int par_wall
    else Float.nan
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"hydra_c.bench_sweep/1\",\n";
  Printf.bprintf buf "  \"jobs\": %d,\n" jobs;
  Printf.bprintf buf "  \"seq_wall_ns\": %d,\n" seq_wall;
  Printf.bprintf buf "  \"par_wall_ns\": %d,\n" par_wall;
  (* json_float: "null" rather than bare NaN when par_wall is 0. *)
  Printf.bprintf buf "  \"speedup\": %s,\n"
    (Hydra_obs.Snapshot.json_float speedup);
  Printf.bprintf buf "  \"counters_match_across_jobs\": %b,\n"
    (seq_counters = par_counters);
  Buffer.add_string buf "  \"counters\": {";
  List.iteri
    (fun i (c : Hydra_obs.counter_view) ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf "\n    \"%s\": %d" c.Hydra_obs.cv_name
        c.Hydra_obs.cv_total)
    par_counters;
  Buffer.add_string buf "\n  }\n}\n";
  Out_channel.with_open_text "BENCH_sweep.json" (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf));
  Format.printf
    "@.wrote BENCH_sweep.json (speedup %.2fx, counters %s) and \
     BENCH_metrics.json@."
    speedup
    (if seq_counters = par_counters then "stable across jobs"
     else "UNSTABLE across jobs")

(* ------------------------------------------------------------------ *)
(* Part 4: BENCH_analysis.json — reference vs production analysis
   (bench/analysis_record.ml, doc/PERFORMANCE.md). *)

let emit_analysis_json () =
  let r = Analysis_record.run () in
  Analysis_record.write r;
  Format.printf "@.";
  Analysis_record.pp_summary std r;
  Format.printf "wrote BENCH_analysis.json@."

(* ------------------------------------------------------------------ *)
(* Part 5: BENCH_sim.json — reference stepper vs skip-ahead engine
   (bench/sim_record.ml, doc/SIMULATOR.md). *)

let emit_sim_json () =
  let r = Sim_record.run () in
  Sim_record.write r;
  Format.printf "@.";
  Sim_record.pp_summary std r;
  Format.printf "wrote BENCH_sim.json@."

let () =
  print_artifacts ();
  run_benchmarks ();
  emit_sweep_json ();
  emit_analysis_json ();
  emit_sim_json ()
