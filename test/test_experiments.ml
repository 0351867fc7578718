(* Tests for the experiment harnesses: renderers, the shared sweep and
   the per-figure aggregations (scaled down so the suite stays fast). *)

module Sweep = Experiments.Sweep
module Fig5 = Experiments.Fig5
module Fig6 = Experiments.Fig6
module Fig7 = Experiments.Fig7
module Tables = Experiments.Tables
module Table_render = Experiments.Table_render
module Scheme = Hydra.Scheme

let check_int = Test_util.check_int
let check_bool = Test_util.check_bool

let render f = Format.asprintf "%a" (fun ppf () -> f ppf) ()

(* One small shared sweep for the figure tests. *)
let small_sweep =
  lazy (Sweep.run ~n_cores:2 ~per_group:4 ~seed:7 ())

(* ------------------------------------------------------------------ *)
(* Table rendering *)

let test_table_alignment () =
  let out =
    render (fun ppf ->
        Table_render.table ppf ~title:"T" ~header:[ "a"; "bbbb" ]
          ~rows:[ [ "xxxxx"; "y" ]; [ "1"; "2" ] ])
  in
  check_bool "title present" true
    (String.split_on_char '\n' out |> List.exists (fun l -> l = "T"));
  (* all non-empty rows after the title share the header's width *)
  check_bool "rule present" true
    (String.split_on_char '\n' out
    |> List.exists (fun l -> String.length l > 0 && l.[0] = '-'))

let test_float_cell () =
  Alcotest.(check string) "nan" "-" (Table_render.float_cell Float.nan);
  Alcotest.(check string) "value" "0.1235" (Table_render.float_cell 0.12345)

let test_pct () =
  Alcotest.(check string) "pct" "19.05%" (Table_render.pct 19.05)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else scan (i + 1)
  in
  scan 0

let test_paper_tables_render () =
  let out = render (fun ppf -> Tables.render_all ppf ()) in
  List.iter
    (fun needle ->
      check_bool (needle ^ " present") true (contains out needle))
    [ "Tripwire"; "PREEMPT_RT"; "Log-uniform" ]

(* ------------------------------------------------------------------ *)
(* Sweep *)

let test_sweep_shape () =
  let sweep = Lazy.force small_sweep in
  check_int "cores" 2 sweep.Sweep.n_cores;
  check_bool "records exist" true (List.length sweep.Sweep.records > 0);
  check_bool "at most per_group x groups" true
    (List.length sweep.Sweep.records <= 40);
  List.iter
    (fun r ->
      check_int "all four schemes evaluated" 4 (List.length r.Sweep.outcomes);
      check_bool "norm util positive" true (r.Sweep.norm_util > 0.0))
    sweep.Sweep.records

let test_sweep_acceptance_monotone_groups () =
  (* Acceptance of HYDRA-C in the lowest group must be at least that of
     the highest group (sanity of the x-axis ordering). *)
  let sweep = Lazy.force small_sweep in
  let acc g =
    Sweep.acceptance (Sweep.group_records sweep ~group:g)
      ~scheme:Scheme.Hydra_c
  in
  check_bool "low group >= high group" true (acc 0 >= acc 9)

let test_sweep_determinism () =
  let a = Sweep.run ~n_cores:2 ~per_group:2 ~seed:11 () in
  let b = Sweep.run ~n_cores:2 ~per_group:2 ~seed:11 () in
  let sig_of s =
    List.map
      (fun r ->
        ( r.Sweep.group, r.Sweep.norm_util,
          List.map (fun (_, o) -> o.Scheme.schedulable) r.Sweep.outcomes ))
      s.Sweep.records
  in
  check_bool "same seed, same records" true (sig_of a = sig_of b)

(* ------------------------------------------------------------------ *)
(* Fig. 6 / Fig. 7 aggregation *)

let test_fig6_points () =
  let fig = Fig6.of_sweep (Lazy.force small_sweep) in
  check_bool "has points" true (List.length fig.Fig6.points > 0);
  List.iter
    (fun p ->
      if p.Fig6.schedulable > 0 then
        check_bool "distance in [0,1)" true
          (p.Fig6.distance >= 0.0 && p.Fig6.distance < 1.0))
    fig.Fig6.points

let test_fig6_distance_decreases () =
  (* The first group's distance must exceed the last schedulable
     group's (the paper's headline trend). *)
  let fig = Fig6.of_sweep (Lazy.force small_sweep) in
  let sched = List.filter (fun p -> p.Fig6.schedulable > 0) fig.Fig6.points in
  match (sched, List.rev sched) with
  | first :: _, last :: _ when first != last ->
      check_bool "monitoring slows as load grows" true
        (first.Fig6.distance >= last.Fig6.distance)
  | _ -> ()

let test_fig7a_ratios_bounded () =
  let fig = Fig7.of_sweep (Lazy.force small_sweep) in
  List.iter
    (fun p ->
      List.iter
        (fun (_, ratio) ->
          check_bool "ratio in [0,1]" true (ratio >= 0.0 && ratio <= 1.0))
        p.Fig7.a_ratios)
    fig.Fig7.points_a

let test_fig7a_hydra_c_dominates_hydra () =
  let fig = Fig7.of_sweep (Lazy.force small_sweep) in
  List.iter
    (fun p ->
      let ratio s = List.assoc s p.Fig7.a_ratios in
      check_bool "HYDRA-C >= HYDRA" true
        (ratio Scheme.Hydra_c >= ratio Scheme.Hydra))
    fig.Fig7.points_a

let test_fig7b_differences () =
  (* vs TMax must be strictly positive wherever defined (period
     adaptation always shortens periods relative to the bounds); vs
     HYDRA must stay near zero — on tasksets both schemes schedule the
     two period vectors are close (see EXPERIMENTS.md for why the
     paper's small positive offset is not reproduced exactly). *)
  let fig = Fig7.of_sweep (Lazy.force small_sweep) in
  List.iter
    (fun p ->
      if p.Fig7.b_vs_tmax_n > 0 then
        check_bool "vs TMax positive" true (p.Fig7.b_vs_tmax > 0.0);
      if p.Fig7.b_vs_hydra_n > 0 then
        check_bool "vs HYDRA near zero" true
          (abs_float p.Fig7.b_vs_hydra < 0.15))
    fig.Fig7.points_b

let test_fig_renderers_produce_output () =
  let sweep = Lazy.force small_sweep in
  let fig6 = Fig6.of_sweep sweep and fig7 = Fig7.of_sweep sweep in
  check_bool "fig6 renders" true
    (String.length (render (fun ppf -> Fig6.render ppf fig6)) > 0);
  check_bool "fig7a renders" true
    (String.length (render (fun ppf -> Fig7.render_a ppf fig7)) > 0);
  check_bool "fig7b renders" true
    (String.length (render (fun ppf -> Fig7.render_b ppf fig7)) > 0)

(* ------------------------------------------------------------------ *)
(* Validation harness *)

let test_validation_sound_and_tight () =
  let r =
    Experiments.Validation.run ~n_cores:2 ~tasksets:20 ~seed:5 ~horizon:30000
      ()
  in
  check_bool "some tasksets validated" true
    (r.Experiments.Validation.tasksets_checked > 0);
  check_int "no bound violations" 0
    (List.length r.Experiments.Validation.violations);
  check_int "no RT misses" 0 r.Experiments.Validation.rt_misses;
  check_bool "tightness within (0, 1]" true
    (r.Experiments.Validation.mean_tightness > 0.0
    && r.Experiments.Validation.mean_tightness <= 1.0 +. 1e-9)

(* The Fig. 5 rover scenarios, simulated by the engine and by the
   reference stepper in test/oracle: every schedule event and stat
   must agree (doc/SIMULATOR.md). The four deployments Fig5.run
   simulates — HYDRA-C semi-partitioned and HYDRA fully partitioned,
   each at the period bounds and at its adapted periods — over the
   Fig. 5 horizon. *)
let test_fig5_rover_engine_matches_oracle () =
  let ts = Security.Rover.taskset () in
  let rt_assignment = Security.Rover.rt_assignment () in
  let n_sec = Array.length ts.Rtsched.Task.sec in
  let sys = Hydra.Analysis.make_system ts ~assignment:rt_assignment in
  let bounds = Array.make n_sec 0 in
  Array.iter
    (fun (s : Rtsched.Task.sec_task) -> bounds.(s.sec_id) <- s.sec_period_max)
    ts.Rtsched.Task.sec;
  let adapted =
    match Hydra.Period_selection.select sys ts.Rtsched.Task.sec with
    | Hydra.Period_selection.Schedulable a ->
        Hydra.Period_selection.period_vector a ~n_sec
    | Hydra.Period_selection.Unschedulable -> Alcotest.fail "rover: HYDRA-C"
  in
  let hydra ~minimize =
    match Hydra.Baseline_hydra.allocate ~minimize sys ts.Rtsched.Task.sec with
    | Hydra.Baseline_hydra.Schedulable allocs ->
        ( Hydra.Baseline_hydra.period_vector allocs ~n_sec,
          Some (Hydra.Baseline_hydra.core_vector allocs ~n_sec) )
    | Hydra.Baseline_hydra.Unschedulable -> Alcotest.fail "rover: HYDRA"
  in
  List.iter
    (fun (policy, (sec_periods, sec_cores)) ->
      let built =
        Sim.Scenario.of_taskset ts ~rt_assignment ~policy ~sec_periods
          ?sec_cores ()
      in
      Test_util.engines_agree ~n_cores:ts.Rtsched.Task.n_cores ~horizon:45000
        built.Sim.Scenario.tasks)
    [ (Sim.Policy.Semi_partitioned, (bounds, None));
      (Sim.Policy.Semi_partitioned, (adapted, None));
      (Sim.Policy.Fully_partitioned, hydra ~minimize:false);
      (Sim.Policy.Fully_partitioned, hydra ~minimize:true) ]

(* The validation metrics snapshot is byte-identical across jobs
   (doc/PARALLELISM.md). *)
let test_validation_snapshot_across_jobs () =
  let snapshot ~jobs =
    let obs = Hydra_obs.create () in
    let (_ : Experiments.Validation.result) =
      Experiments.Validation.run ~jobs ~obs ~n_cores:2 ~tasksets:8 ~seed:11
        ~horizon:30000 ()
    in
    Hydra_obs.Snapshot.to_json obs
  in
  Alcotest.(check string) "snapshot: jobs=1 = jobs=4" (snapshot ~jobs:1)
    (snapshot ~jobs:4)

let test_validation_render () =
  let r =
    Experiments.Validation.run ~n_cores:2 ~tasksets:5 ~seed:6 ~horizon:20000 ()
  in
  check_bool "renders" true
    (String.length
       (render (fun ppf -> Experiments.Validation.render ppf r))
    > 0)

(* ------------------------------------------------------------------ *)
(* Dat export *)

let temp_dir () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hydra_dat_%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  dir

let read_lines path =
  In_channel.with_open_text path In_channel.input_lines

let test_dat_export_fig6 () =
  let dir = temp_dir () in
  let fig = Fig6.of_sweep (Lazy.force small_sweep) in
  let path = Experiments.Dat_export.fig6 ~dir fig in
  let lines = read_lines path in
  check_bool "header present" true
    (match lines with h :: _ -> h.[0] = '#' | [] -> false);
  check_int "one row per point" (List.length fig.Fig6.points)
    (List.length lines - 1)

let test_dat_export_fig7 () =
  let dir = temp_dir () in
  let fig = Fig7.of_sweep (Lazy.force small_sweep) in
  let a = Experiments.Dat_export.fig7a ~dir fig in
  let b = Experiments.Dat_export.fig7b ~dir fig in
  check_int "fig7a rows" (List.length fig.Fig7.points_a)
    (List.length (read_lines a) - 1);
  check_int "fig7b rows" (List.length fig.Fig7.points_b)
    (List.length (read_lines b) - 1);
  (* every data row of fig7a has 1 + #schemes columns *)
  List.iteri
    (fun i line ->
      if i > 0 then
        check_int "columns"
          (1 + List.length fig.Fig7.schemes)
          (List.length
             (String.split_on_char ' ' line
             |> List.filter (fun s -> s <> ""))))
    (read_lines a)

let test_dat_export_gnuplot_script () =
  let dir = temp_dir () in
  let path = Experiments.Dat_export.gnuplot_script ~dir ~cores:[ 2; 4 ] in
  let content = String.concat "\n" (read_lines path) in
  check_bool "references fig6 files" true (contains content "fig6_m2.dat");
  check_bool "references both core counts" true
    (contains content "fig7a_m4.dat")

(* ------------------------------------------------------------------ *)
(* Report *)

let test_report_generates () =
  let scale =
    { Experiments.Report.sc_seed = 9; sc_trials = 2; sc_per_group = 2;
      sc_cores = [ 2 ]; sc_validate_tasksets = 0 }
  in
  let buf = Experiments.Report.generate scale in
  let content = Buffer.contents buf in
  List.iter
    (fun needle ->
      check_bool (needle ^ " present") true (contains content needle))
    [ "# HYDRA-C experiment report"; "Fig. 6"; "Fig. 7a"; "Ablation X5";
      "Tripwire" ]

(* ------------------------------------------------------------------ *)
(* Fig. 5 (scaled down) *)

let tiny_fig5 deployment =
  Fig5.run ~seed:3 ~trials:3 ~horizon:45000 ~deployment ()

let test_fig5_rt_never_misses () =
  let r = tiny_fig5 Fig5.Tmax in
  check_int "HYDRA-C rt misses" 0 r.Fig5.hydra_c.Fig5.rt_deadline_misses;
  check_int "HYDRA rt misses" 0 r.Fig5.hydra.Fig5.rt_deadline_misses

let test_fig5_detects_everything () =
  let r = tiny_fig5 Fig5.Tmax in
  check_int "HYDRA-C all detected" 0 r.Fig5.hydra_c.Fig5.undetected;
  check_int "HYDRA all detected" 0 r.Fig5.hydra.Fig5.undetected

let test_fig5_migrations_only_for_hydra_c () =
  let r = tiny_fig5 Fig5.Tmax in
  Alcotest.(check (float 1e-9)) "HYDRA never migrates" 0.0
    r.Fig5.hydra.Fig5.mean_migrations;
  check_bool "HYDRA-C migrates" true
    (r.Fig5.hydra_c.Fig5.mean_migrations > 0.0)

let test_fig5_adapted_periods_differ () =
  let r = tiny_fig5 Fig5.Adapted in
  check_bool "adapted periods below bounds" true
    (Array.exists (fun p -> p < 10000) r.Fig5.hydra_c.Fig5.periods);
  check_bool "renders" true
    (String.length (render (fun ppf -> Fig5.render ppf r)) > 0)

let test_fig5_latency_quantiles () =
  (* Every attack is detected at this scale, so both schemes carry
     quantiles, consistent with the means and ordered. *)
  let r = tiny_fig5 Fig5.Tmax in
  List.iter
    (fun (s : Fig5.scheme_report) ->
      match (s.Fig5.detect_tripwire_q, s.Fig5.detect_kmod_q) with
      | Some tw, Some km ->
          List.iter
            (fun (q : Fig5.quantiles) ->
              check_bool (s.Fig5.label ^ " quantiles ordered") true
                (q.Fig5.q50 <= q.Fig5.q95 && q.Fig5.q95 <= q.Fig5.q99
                && q.Fig5.q99 <= q.Fig5.qmax))
            [ tw; km ];
          check_bool (s.Fig5.label ^ " mean within [0, max]") true
            (s.Fig5.mean_detect_tripwire <= float_of_int tw.Fig5.qmax
            && s.Fig5.mean_detect_kmod <= float_of_int km.Fig5.qmax)
      | _ -> Alcotest.failf "%s: expected quantiles" s.Fig5.label)
    [ r.Fig5.hydra_c; r.Fig5.hydra ]

let test_fig5_sched_log_covers_cores () =
  (* With a schedule log attached, trial 0's HYDRA-C run is captured:
     the rover has 2 cores and its semi-partitioned schedule executes
     segments on both, so the Chrome export has slices on both rows. *)
  let log = Sim.Event_log.create ~n_cores:2 in
  let with_log = Fig5.run ~seed:3 ~trials:2 ~sched_log:log () in
  check_bool "log non-empty" true (Sim.Event_log.length log > 0);
  let json = Test_util.parse_json (Sim.Event_log.to_chrome log) in
  let evs = Test_util.as_list (Test_util.member "traceEvents" json) in
  let slice_tids =
    List.filter_map
      (fun e ->
        if Test_util.as_str (Test_util.member "ph" e) = "X" then
          Some (int_of_float (Test_util.as_num (Test_util.member "tid" e)))
        else None)
      evs
  in
  check_bool "slices on core 0" true (List.mem 0 slice_tids);
  check_bool "slices on core 1" true (List.mem 1 slice_tids);
  (* Recording must not perturb the experiment. *)
  let plain = Fig5.run ~seed:3 ~trials:2 () in
  check_bool "report unchanged by logging" true (with_log = plain)

let () =
  Alcotest.run "experiments"
    [ ( "render",
        [ Alcotest.test_case "table alignment" `Quick test_table_alignment;
          Alcotest.test_case "float cell" `Quick test_float_cell;
          Alcotest.test_case "pct" `Quick test_pct;
          Alcotest.test_case "paper tables" `Quick test_paper_tables_render ]
      );
      ( "sweep",
        [ Alcotest.test_case "shape" `Quick test_sweep_shape;
          Alcotest.test_case "acceptance ordering" `Quick
            test_sweep_acceptance_monotone_groups;
          Alcotest.test_case "deterministic" `Quick test_sweep_determinism ] );
      ( "figures",
        [ Alcotest.test_case "fig6 points" `Quick test_fig6_points;
          Alcotest.test_case "fig6 trend" `Quick test_fig6_distance_decreases;
          Alcotest.test_case "fig7a bounded" `Quick test_fig7a_ratios_bounded;
          Alcotest.test_case "fig7a dominance" `Quick
            test_fig7a_hydra_c_dominates_hydra;
          Alcotest.test_case "fig7b differences" `Quick
            test_fig7b_differences;
          Alcotest.test_case "renderers" `Quick
            test_fig_renderers_produce_output ] );
      ( "validation",
        [ Alcotest.test_case "sound and tight" `Quick
            test_validation_sound_and_tight;
          Alcotest.test_case "snapshot identical across jobs" `Quick
            test_validation_snapshot_across_jobs;
          Alcotest.test_case "renders" `Quick test_validation_render ] );
      ( "report",
        [ Alcotest.test_case "generates sections" `Slow test_report_generates ]
      );
      ( "dat_export",
        [ Alcotest.test_case "fig6 file" `Quick test_dat_export_fig6;
          Alcotest.test_case "fig7 files" `Quick test_dat_export_fig7;
          Alcotest.test_case "gnuplot script" `Quick
            test_dat_export_gnuplot_script ] );
      ( "fig5",
        [ Alcotest.test_case "rt isolation" `Quick test_fig5_rt_never_misses;
          Alcotest.test_case "all attacks detected" `Quick
            test_fig5_detects_everything;
          Alcotest.test_case "migration accounting" `Quick
            test_fig5_migrations_only_for_hydra_c;
          Alcotest.test_case "adapted deployment" `Quick
            test_fig5_adapted_periods_differ;
          Alcotest.test_case "latency quantiles" `Quick
            test_fig5_latency_quantiles;
          Alcotest.test_case "schedule log covers both cores" `Quick
            test_fig5_sched_log_covers_cores;
          Alcotest.test_case "rover engine = oracle" `Quick
            test_fig5_rover_engine_matches_oracle ] ) ]
