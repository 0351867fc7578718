module Task = Rtsched.Task
module Rng = Taskgen.Rng

type quantiles = { q50 : int; q95 : int; q99 : int; qmax : int }

type scheme_report = {
  label : string;
  periods : int array;
  mean_detect_tripwire : float;
  mean_detect_kmod : float;
  detect_tripwire_q : quantiles option;
  detect_kmod_q : quantiles option;
  undetected : int;
  mean_context_switches : float;
  mean_migrations : float;
  rt_deadline_misses : int;
  sec_deadline_misses : int;
}

type deployment = Tmax | Adapted

type report = {
  trials : int;
  horizon : int;
  deployment : deployment;
  hydra_c : scheme_report;
  hydra : scheme_report;
  detection_speedup_pct : float;
  context_switch_ratio : float;
}

(* One simulated run of the rover under one scheme, with both attacks
   injected; returns (tripwire latency, kmod latency, engine stats). *)
type trial_outcome = {
  lat_tripwire : int option;
  lat_kmod : int option;
  stats : Sim.Engine.stats;
}

let run_one ?overheads ?obs ?sched_log ~scheme ~ts ~rt_assignment
    ~policy ~periods ~sec_cores ~horizon ~attack_tripwire ~attack_kmod
    ~target_image ~rogue_name () =
  let built =
    Sim.Scenario.of_taskset ts ~rt_assignment ~policy ~sec_periods:periods
      ?sec_cores ()
  in
  (* Fresh stores per run: mutations must not leak across schemes. *)
  let fs = Security.Rover.image_store () in
  let table = Security.Rover.module_table () in
  let fs_checker =
    Security.Integrity_checker.create fs ~n_regions:Security.Rover.image_regions
  in
  let km_checker =
    Security.Kmod_checker.create table ~n_regions:Security.Rover.kmod_regions
  in
  let fs_injector = Security.Intrusion.create () in
  Security.Intrusion.schedule fs_injector ~at:attack_tripwire
    ~label:"shellcode-tamper" (fun () ->
      Security.Integrity_checker.tamper_file fs target_image);
  let km_injector = Security.Intrusion.create () in
  Security.Intrusion.schedule km_injector ~at:attack_kmod
    ~label:"rootkit-insert" (fun () ->
      Security.Kmod_checker.insert_module table
        { Security.Kmod_checker.m_name = rogue_name; m_size = 13337;
          m_addr = 0x7fdead00L; m_signature = "unsigned" });
  let tw_monitor =
    Security.Detection.create
      ~sim_id:built.Sim.Scenario.sec_sim_ids.(Security.Rover.tripwire_sec_id)
      ~wcet:5342
      ~target:
        (Security.Detection.checker_target
           ~n_regions:Security.Rover.image_regions ~injector:fs_injector
           ~check:(Security.Integrity_checker.check_region fs_checker))
  in
  let km_monitor =
    Security.Detection.create
      ~sim_id:built.Sim.Scenario.sec_sim_ids.(Security.Rover.kmod_sec_id)
      ~wcet:223
      ~target:
        (Security.Detection.checker_target
           ~n_regions:Security.Rover.kmod_regions ~injector:km_injector
           ~check:(Security.Kmod_checker.check_region km_checker))
  in
  let tw_sim_id = built.Sim.Scenario.sec_sim_ids.(Security.Rover.tripwire_sec_id)
  and km_sim_id = built.Sim.Scenario.sec_sim_ids.(Security.Rover.kmod_sec_id) in
  let on_execute =
    Security.Detection.combine_hooks
      [ Security.Detection.on_execute tw_monitor;
        Security.Detection.on_execute km_monitor ]
  in
  (* Release-to-finish latency per scheme and monitor class (no-ops
     without obs). *)
  let on_finish =
    Security.Detection.combine_finish_hooks
      [ Security.Detection.on_finish_latency obs
          ~monitor_class:(scheme ^ ".tripwire") ~sim_id:tw_sim_id;
        Security.Detection.on_finish_latency obs
          ~monitor_class:(scheme ^ ".kmod") ~sim_id:km_sim_id ]
  in
  let hooks =
    { Sim.Engine.no_hooks with Sim.Engine.on_execute = Some on_execute;
      Sim.Engine.on_finish = Some on_finish }
  in
  let hooks =
    match sched_log with
    | None -> hooks
    | Some log -> Sim.Event_log.hooks ~base:hooks log
  in
  let stats =
    Sim.Engine.run ?obs ~hooks ?overheads
      ~n_cores:ts.Task.n_cores ~horizon built.Sim.Scenario.tasks
  in
  Security.Detection.record_detection obs
    ~monitor_class:(scheme ^ ".tripwire") tw_monitor ~attack_at:attack_tripwire;
  Security.Detection.record_detection obs ~monitor_class:(scheme ^ ".kmod")
    km_monitor ~attack_at:attack_kmod;
  let latency monitor attack =
    match Security.Detection.detection_time monitor with
    | Some t -> Some (t - attack)
    | None -> None
  in
  { lat_tripwire = latency tw_monitor attack_tripwire;
    lat_kmod = latency km_monitor attack_kmod;
    stats }

(* p50/p95/p99/max through the same log-bucketed histogram the
   [--metrics-out] snapshot serializes, so both reports agree exactly;
   computed from the outcome list, not from obs, so stdout is
   identical with and without instrumentation. *)
let quantiles_of = function
  | [] -> None
  | vs ->
      let h = Hydra_obs.Histogram.of_list vs in
      Some
        { q50 = Hydra_obs.Histogram.quantile h 0.50;
          q95 = Hydra_obs.Histogram.quantile h 0.95;
          q99 = Hydra_obs.Histogram.quantile h 0.99;
          qmax = (match Hydra_obs.Histogram.max_value h with
                 | Some m -> m
                 | None -> 0) }

let summarize ~label ~periods ~horizon:_ outcomes ~rt_ids ~sec_ids =
  let latencies f =
    List.filter_map (fun o -> Option.map float_of_int (f o)) outcomes
  in
  let int_latencies f = List.filter_map f outcomes in
  let tw = latencies (fun o -> o.lat_tripwire) in
  let km = latencies (fun o -> o.lat_kmod) in
  let undetected =
    List.length
      (List.filter
         (fun o -> o.lat_tripwire = None || o.lat_kmod = None)
         outcomes)
  in
  let mean_of f =
    Hydra.Metrics.mean (List.map (fun o -> float_of_int (f o.stats)) outcomes)
  in
  let misses ids =
    List.fold_left
      (fun acc o -> acc + Sim.Metrics.deadline_misses o.stats ~sim_ids:ids)
      0 outcomes
  in
  { label; periods;
    mean_detect_tripwire = Hydra.Metrics.mean tw;
    mean_detect_kmod = Hydra.Metrics.mean km;
    detect_tripwire_q = quantiles_of (int_latencies (fun o -> o.lat_tripwire));
    detect_kmod_q = quantiles_of (int_latencies (fun o -> o.lat_kmod));
    undetected;
    mean_context_switches =
      mean_of (fun s -> s.Sim.Engine.context_switches);
    mean_migrations = mean_of (fun s -> s.Sim.Engine.migrations);
    rt_deadline_misses = misses rt_ids;
    sec_deadline_misses = misses sec_ids }

let run ?(seed = 42) ?(trials = 35) ?(horizon = 45000) ?(deployment = Tmax)
    ?overheads ?jobs ?obs ?sched_log () =
  Hydra_obs.span obs "fig5.run" @@ fun () ->
  let ts = Security.Rover.taskset () in
  let rt_assignment = Security.Rover.rt_assignment () in
  let n_sec = Array.length ts.Task.sec in
  let sys = Hydra.Analysis.make_system ts ~assignment:rt_assignment in
  let bounds =
    let v = Array.make n_sec 0 in
    Array.iter (fun s -> v.(s.Task.sec_id) <- s.Task.sec_period_max) ts.Task.sec;
    v
  in
  (* HYDRA-C deployment: selected periods (Algorithm 1) or the bounds. *)
  let hc_periods =
    match deployment with
    | Tmax -> bounds
    | Adapted -> (
        match Hydra.Period_selection.select ?obs sys ts.Task.sec with
        | Hydra.Period_selection.Schedulable a ->
            Hydra.Period_selection.period_vector a ~n_sec
        | Hydra.Period_selection.Unschedulable ->
            failwith "Fig5.run: rover taskset unschedulable under HYDRA-C")
  in
  (* HYDRA deployment: greedy per-core allocation, minimizing or not. *)
  let hy_periods, hy_cores =
    let minimize = deployment = Adapted in
    match Hydra.Baseline_hydra.allocate ?obs ~minimize sys ts.Task.sec with
    | Hydra.Baseline_hydra.Schedulable allocs ->
        ( Hydra.Baseline_hydra.period_vector allocs ~n_sec,
          Hydra.Baseline_hydra.core_vector allocs ~n_sec )
    | Hydra.Baseline_hydra.Unschedulable ->
        failwith "Fig5.run: rover taskset unschedulable under HYDRA"
  in
  let rng = Rng.create seed in
  (* One pre-split stream per trial (attack times and targets), so a
     trial's draws are fixed by its index alone and the trials can run
     on any number of domains with identical outcomes. *)
  let streams = Rng.split_n rng trials in
  let trial i =
    Hydra_obs.span obs "fig5.trial" @@ fun () ->
    let stream = streams.(i) in
    let attack_tripwire = Rng.int_in stream 1000 15000 in
    let attack_kmod = Rng.int_in stream 1000 15000 in
    let target_image =
      Printf.sprintf "img_%04d.raw"
        (Rng.int stream Security.Rover.image_regions)
    in
    let rogue_name =
      Printf.sprintf "rk_hook_%04x" (Rng.int stream 0xFFFF)
    in
    let common ?sched_log ~scheme ~policy ~periods ~sec_cores () =
      run_one ?overheads ?obs ?sched_log ~scheme ~ts ~rt_assignment
        ~policy ~periods ~sec_cores ~horizon ~attack_tripwire ~attack_kmod
        ~target_image ~rogue_name ()
    in
    (* The schedule log captures trial 0's HYDRA-C run only: one
       deterministic writer no matter how trials are spread over
       domains. *)
    let sched_log = if i = 0 then sched_log else None in
    ( common ?sched_log ~scheme:"hydra_c"
        ~policy:Sim.Policy.Semi_partitioned ~periods:hc_periods
        ~sec_cores:None (),
      common ~scheme:"hydra" ~policy:Sim.Policy.Fully_partitioned
        ~periods:hy_periods ~sec_cores:(Some hy_cores) () )
  in
  let results = Parallel.Pool.map ?obs ?jobs trial trials in
  (* Last trial first, matching the original accumulation order: the
     float means must not move with [jobs]. *)
  let outcomes_c = List.rev_map fst (Array.to_list results)
  and outcomes_h = List.rev_map snd (Array.to_list results) in
  let n_rt = Array.length ts.Task.rt in
  let rt_ids = Array.init n_rt (fun i -> i) in
  let sec_ids = Array.init n_sec (fun j -> n_rt + j) in
  let hydra_c =
    summarize ~label:"HYDRA-C" ~periods:hc_periods ~horizon outcomes_c
      ~rt_ids ~sec_ids
  in
  let hydra =
    summarize ~label:"HYDRA" ~periods:hy_periods ~horizon outcomes_h
      ~rt_ids ~sec_ids
  in
  (* Speedup of the mean latency, averaged over the two attack kinds
     (ratio of means — a per-trial ratio average is unstable when a
     HYDRA latency happens to be tiny). *)
  let speedup mean_c mean_h =
    if mean_h > 0.0 then Some ((mean_h -. mean_c) /. mean_h *. 100.0)
    else None
  in
  let speedups =
    List.filter_map
      (fun f -> f ())
      [ (fun () ->
          speedup hydra_c.mean_detect_tripwire hydra.mean_detect_tripwire);
        (fun () -> speedup hydra_c.mean_detect_kmod hydra.mean_detect_kmod) ]
  in
  { trials; horizon; deployment; hydra_c; hydra;
    detection_speedup_pct = Hydra.Metrics.mean speedups;
    context_switch_ratio =
      hydra_c.mean_context_switches /. hydra.mean_context_switches }

let render ppf r =
  let row (s : scheme_report) =
    [ s.label;
      String.concat "/" (Array.to_list (Array.map string_of_int s.periods));
      Table_render.float_cell s.mean_detect_tripwire;
      Table_render.float_cell s.mean_detect_kmod;
      string_of_int s.undetected;
      Table_render.float_cell s.mean_context_switches;
      Table_render.float_cell s.mean_migrations;
      string_of_int s.rt_deadline_misses;
      string_of_int s.sec_deadline_misses ]
  in
  let deployment_name =
    match r.deployment with Tmax -> "T_max" | Adapted -> "adapted"
  in
  Table_render.table ppf
    ~title:
      (Printf.sprintf
         "Fig. 5 (rover, %d trials, %d ms horizon, %s periods): detection \
          latency and context switches"
         r.trials r.horizon deployment_name)
    ~header:
      [ "scheme"; "periods(tw/km)"; "detect-tw(ms)"; "detect-km(ms)";
        "undet"; "ctx-switch"; "migrations"; "rt-miss"; "sec-miss" ]
    ~rows:[ row r.hydra_c; row r.hydra ];
  let quantile_line (s : scheme_report) =
    let cell = function
      | None -> "-"
      | Some q ->
          Printf.sprintf "p50=%d p95=%d p99=%d max=%d" q.q50 q.q95 q.q99
            q.qmax
    in
    Format.fprintf ppf
      "detection latency quantiles (%s): tripwire %s | kmod %s@." s.label
      (cell s.detect_tripwire_q) (cell s.detect_kmod_q)
  in
  quantile_line r.hydra_c;
  quantile_line r.hydra;
  Format.fprintf ppf
    "detection speedup (HYDRA-C over HYDRA): %s   (paper: 19.05%%)@."
    (Table_render.pct r.detection_speedup_pct);
  Format.fprintf ppf
    "context-switch ratio (HYDRA-C / HYDRA): %.2fx (paper: 1.75x)@."
    r.context_switch_ratio
