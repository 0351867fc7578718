(* The paper's Sec. 5.1 rover, end to end: build the exact taskset the
   authors ran on their Raspberry-Pi rover, select security periods
   with HYDRA-C and with the HYDRA baseline, inject both attacks
   (image-store tampering and a rootkit module) and watch each scheme
   detect them in the simulator — including the first execution
   segments of the schedule.

   Run with: dune exec examples/rover_case_study.exe *)

module Task = Rtsched.Task

let section title = Format.printf "@.=== %s ===@." title

let show_periods label periods =
  Format.printf "%-8s tripwire T=%d ms, kmod-checker T=%d ms@." label
    periods.(Security.Rover.tripwire_sec_id)
    periods.(Security.Rover.kmod_sec_id)

let () =
  let ts = Security.Rover.taskset () in
  let rt_assignment = Security.Rover.rt_assignment () in

  section "Platform (Table 2)";
  Security.Rover.pp_table2 Format.std_formatter ();

  section "Taskset";
  Format.printf "%a@." Task.pp_taskset ts;
  Format.printf "RT pinning: navigation -> core 0, camera -> core 1@.";

  (* --- Period selection under both schemes ---------------------- *)
  section "Period selection";
  let sys = Hydra.Analysis.make_system ts ~assignment:rt_assignment in
  let n_sec = Array.length ts.Task.sec in
  let hc_periods =
    match Hydra.Period_selection.select sys ts.Task.sec with
    | Hydra.Period_selection.Schedulable a ->
        Hydra.Period_selection.period_vector a ~n_sec
    | Hydra.Period_selection.Unschedulable -> failwith "HYDRA-C unschedulable"
  in
  let hy_periods, hy_cores =
    match Hydra.Baseline_hydra.allocate ~minimize:true sys ts.Task.sec with
    | Hydra.Baseline_hydra.Schedulable allocs ->
        ( Hydra.Baseline_hydra.period_vector allocs ~n_sec,
          Hydra.Baseline_hydra.core_vector allocs ~n_sec )
    | Hydra.Baseline_hydra.Unschedulable -> failwith "HYDRA unschedulable"
  in
  show_periods "HYDRA-C" hc_periods;
  show_periods "HYDRA" hy_periods;
  Format.printf "HYDRA pins: tripwire -> core %d, kmod-checker -> core %d@."
    hy_cores.(Security.Rover.tripwire_sec_id)
    hy_cores.(Security.Rover.kmod_sec_id);

  (* --- One instrumented run per scheme --------------------------- *)
  let attack_at = 6000 in
  let run label policy periods sec_cores =
    section (label ^ ": simulated intrusion");
    let built =
      Sim.Scenario.of_taskset ts ~rt_assignment ~policy ~sec_periods:periods
        ?sec_cores ()
    in
    let fs = Security.Rover.image_store () in
    let table = Security.Rover.module_table () in
    let fs_checker =
      Security.Integrity_checker.create fs
        ~n_regions:Security.Rover.image_regions
    in
    let km_checker =
      Security.Kmod_checker.create table ~n_regions:Security.Rover.kmod_regions
    in
    let fs_injector = Security.Intrusion.create () in
    Security.Intrusion.schedule fs_injector ~at:attack_at ~label:"shellcode"
      (fun () -> Security.Integrity_checker.tamper_file fs "img_0042.raw");
    let km_injector = Security.Intrusion.create () in
    Security.Intrusion.schedule km_injector ~at:attack_at ~label:"rootkit"
      (fun () ->
        Security.Kmod_checker.insert_module table
          { Security.Kmod_checker.m_name = "rk_read_hook"; m_size = 4242;
            m_addr = 0x7fbadc0deL; m_signature = "unsigned" });
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
    let log = Sim.Event_log.create ~n_cores:2 in
    let hooks =
      Sim.Event_log.hooks log
        ~base:
          { Sim.Engine.no_hooks with
            Sim.Engine.on_execute =
              Some
                (Security.Detection.combine_hooks
                   [ Security.Detection.on_execute tw_monitor;
                     Security.Detection.on_execute km_monitor ]) }
    in
    let stats =
      Sim.Engine.run ~hooks ~n_cores:2 ~horizon:45000 built.Sim.Scenario.tasks
    in
    let report name monitor =
      match Security.Detection.detection_time monitor with
      | Some t ->
          Format.printf "%-14s attack at %d ms, detected at %d ms (latency %d ms)@."
            name attack_at t (t - attack_at)
      | None -> Format.printf "%-14s NOT detected within the horizon@." name
    in
    report "shellcode:" tw_monitor;
    report "rootkit:" km_monitor;
    Format.printf
      "context switches: %d, migrations: %d, RT deadline misses: %d@."
      stats.Sim.Engine.context_switches stats.Sim.Engine.migrations
      (Sim.Metrics.deadline_misses stats
         ~sim_ids:built.Sim.Scenario.rt_sim_ids);
    Format.printf "execution segments of the first 2 s:@.";
    List.iter
      (fun e ->
        match e.Sim.Event_log.e_kind with
        | Sim.Event_log.Segment _ when e.Sim.Event_log.e_time < 2000 ->
            Format.printf "  %a@." Sim.Event_log.pp_event e
        | _ -> ())
      (Sim.Event_log.events log)
  in
  run "HYDRA-C" Sim.Policy.Semi_partitioned hc_periods None;
  run "HYDRA" Sim.Policy.Fully_partitioned hy_periods (Some hy_cores);

  section "WCET sensitivity (how much can the monitors grow?)";
  Format.printf "%a@." Hydra.Sensitivity.render
    (Hydra.Sensitivity.analyze sys ts.Task.sec);

  section "Priority-order exploration";
  (match Hydra.Priority_assignment.best_by_distance sys ts.Task.sec with
  | Some (ordering, _, distance) ->
      Format.printf
        "most frequent monitoring comes from the %s order (distance %.4f)@."
        (Hydra.Priority_assignment.ordering_name ordering)
        distance
  | None -> Format.printf "no schedulable ordering@.");

  section "Fig. 5 summary (35 trials, T_max deployment)";
  let report = Experiments.Fig5.run () in
  Experiments.Fig5.render Format.std_formatter report
