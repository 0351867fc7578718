(* rover: Fig. 5, the rover case study — Experiments.Fig5.run with the
   paper's 35 trials and 45 s horizon, once per deployment (periods at
   T_max, and each scheme's own adapted periods). One operation is one
   trial: a HYDRA-C and a HYDRA simulation with both attacks. *)

module Fig5 = Experiments.Fig5
module Task = Rtsched.Task
module Rover = Security.Rover

let trials = 35
let horizon = 45000
let deployments = [ Fig5.Tmax; Fig5.Adapted ]
let pin_file = "perfbench/pins/rover-seed42.txt"

let pass ~jobs ~seed =
  List.map (fun deployment -> Fig5.run ~seed ~trials ~horizon ~deployment ~jobs ()) deployments

let rt_misses (r : Fig5.report) = r.hydra_c.rt_deadline_misses + r.hydra.rt_deadline_misses

let deployment_name = function Fig5.Tmax -> "tmax" | Fig5.Adapted -> "adapted"

let pins reports =
  String.concat ""
    (List.map
       (fun (r : Fig5.report) ->
         Printf.sprintf "%s detection_speedup_pct=%.6f context_switch_ratio=%.6f\n"
           (deployment_name r.deployment) r.detection_speedup_pct r.context_switch_ratio)
       reports)

(* ------------------------------------------------------------------ *)
(* Traced pass: the public calls Fig5.run makes — build the scenario,
   the stores and the checkers, then run Sim.Engine.run with the
   checker closures wrapped in spans — and the same summary. *)

type outcome = { tw : int option; km : int option; stats : Sim.Engine.stats }

type counts = { regions : int Atomic.t; bytes : int Atomic.t; detected : int Atomic.t }

let run_one ~obs ~counts ~ts ~rt_assignment ~policy ~periods ~sec_cores
    ~attack_tripwire ~attack_kmod ~target_image ~rogue_name =
  let built =
    Hydra_obs.span obs "sim.scenario" (fun () ->
        Sim.Scenario.of_taskset ts ~rt_assignment ~policy ~sec_periods:periods
          ?sec_cores ())
  in
  let tw_sim_id = built.sec_sim_ids.(Rover.tripwire_sec_id)
  and km_sim_id = built.sec_sim_ids.(Rover.kmod_sec_id) in
  let fs, tw_monitor, km_monitor =
    Hydra_obs.span obs "security.store_setup" (fun () ->
        let fs = Rover.image_store () in
        let table = Rover.module_table () in
        let fs_checker =
          Security.Integrity_checker.create fs ~n_regions:Rover.image_regions
        in
        let km_checker =
          Security.Kmod_checker.create table ~n_regions:Rover.kmod_regions
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
        let tw =
          Security.Detection.create ~sim_id:tw_sim_id ~wcet:5342
            ~target:
              (Security.Detection.checker_target ~n_regions:Rover.image_regions
                 ~injector:fs_injector ~check:(fun region ->
                   Hydra_obs.span obs "security.integrity.check" (fun () ->
                       Security.Integrity_checker.check_region fs_checker region)))
        in
        let km =
          Security.Detection.create ~sim_id:km_sim_id ~wcet:223
            ~target:
              (Security.Detection.checker_target ~n_regions:Rover.kmod_regions
                 ~injector:km_injector ~check:(fun region ->
                   Hydra_obs.span obs "security.kmod.check" (fun () ->
                       Security.Kmod_checker.check_region km_checker region)))
        in
        (fs, tw, km))
  in
  let on_execute =
    Security.Detection.combine_hooks
      [ Security.Detection.on_execute tw_monitor; Security.Detection.on_execute km_monitor ]
  in
  let on_finish =
    Security.Detection.combine_finish_hooks
      [ Security.Detection.on_finish_latency None ~monitor_class:"" ~sim_id:tw_sim_id;
        Security.Detection.on_finish_latency None ~monitor_class:"" ~sim_id:km_sim_id ]
  in
  let hooks =
    { Sim.Engine.no_hooks with on_execute = Some on_execute; on_finish = Some on_finish }
  in
  let stats =
    Hydra_obs.span obs "sim.engine" (fun () ->
        Sim.Engine.run ~hooks ~n_cores:ts.Task.n_cores ~horizon built.tasks)
  in
  (* bytes hashed are computed: each tripwire region is one image *)
  let tw_regions = Security.Detection.regions_checked tw_monitor in
  ignore
    (Atomic.fetch_and_add counts.regions
       (tw_regions + Security.Detection.regions_checked km_monitor));
  ignore
    (Atomic.fetch_and_add counts.bytes
       (tw_regions * Security.Filesystem.total_bytes fs / Rover.image_regions));
  let latency monitor attack =
    Option.map (fun t -> t - attack) (Security.Detection.detection_time monitor)
  in
  let tw = latency tw_monitor attack_tripwire and km = latency km_monitor attack_kmod in
  ignore
    (Atomic.fetch_and_add counts.detected
       ((if tw = None then 0 else 1) + if km = None then 0 else 1));
  { tw; km; stats }

let quantiles_of = function
  | [] -> None
  | vs ->
      let h = Hydra_obs.Histogram.of_list vs in
      Some
        { Fig5.q50 = Hydra_obs.Histogram.quantile h 0.50;
          q95 = Hydra_obs.Histogram.quantile h 0.95;
          q99 = Hydra_obs.Histogram.quantile h 0.99;
          qmax = Option.value (Hydra_obs.Histogram.max_value h) ~default:0 }

let summarize ~label ~periods outcomes ~rt_ids ~sec_ids =
  let floats f = List.filter_map (fun o -> Option.map float_of_int (f o)) outcomes in
  let mean_of f =
    Hydra.Metrics.mean (List.map (fun o -> float_of_int (f o.stats)) outcomes)
  in
  let misses ids =
    List.fold_left
      (fun acc o -> acc + Sim.Metrics.deadline_misses o.stats ~sim_ids:ids)
      0 outcomes
  in
  { Fig5.label; periods;
    mean_detect_tripwire = Hydra.Metrics.mean (floats (fun o -> o.tw));
    mean_detect_kmod = Hydra.Metrics.mean (floats (fun o -> o.km));
    detect_tripwire_q = quantiles_of (List.filter_map (fun o -> o.tw) outcomes);
    detect_kmod_q = quantiles_of (List.filter_map (fun o -> o.km) outcomes);
    undetected = List.length (List.filter (fun o -> o.tw = None || o.km = None) outcomes);
    mean_context_switches = mean_of (fun s -> s.Sim.Engine.context_switches);
    mean_migrations = mean_of (fun s -> s.Sim.Engine.migrations);
    rt_deadline_misses = misses rt_ids;
    sec_deadline_misses = misses sec_ids }

let traced_report ~obs ~counts ~stats_acc ~jobs ~seed deployment =
  let ts = Rover.taskset () and rt_assignment = Rover.rt_assignment () in
  let n_sec = Array.length ts.sec in
  let bounds = Array.make n_sec 0 in
  Array.iter (fun s -> bounds.(s.Task.sec_id) <- s.Task.sec_period_max) ts.sec;
  let hc_periods, sys =
    Hydra_obs.span obs "hydra_c.select" (fun () ->
        let sys = Hydra.Analysis.make_system ts ~assignment:rt_assignment in
        match deployment with
        | Fig5.Tmax -> (bounds, sys)
        | Fig5.Adapted -> (
            match Hydra.Period_selection.select ?obs sys ts.sec with
            | Hydra.Period_selection.Schedulable a ->
                (Hydra.Period_selection.period_vector a ~n_sec, sys)
            | Hydra.Period_selection.Unschedulable -> failwith "rover unschedulable"))
  in
  let hy_periods, hy_cores =
    Hydra_obs.span obs "baseline_hydra" (fun () ->
        match
          Hydra.Baseline_hydra.allocate ?obs ~minimize:(deployment = Fig5.Adapted)
            sys ts.sec
        with
        | Hydra.Baseline_hydra.Schedulable allocs ->
            ( Hydra.Baseline_hydra.period_vector allocs ~n_sec,
              Hydra.Baseline_hydra.core_vector allocs ~n_sec )
        | Hydra.Baseline_hydra.Unschedulable -> failwith "rover unschedulable")
  in
  let streams = Taskgen.Rng.split_n (Taskgen.Rng.create seed) trials in
  let trial i =
    Hydra_obs.span obs "pool.item" @@ fun () ->
    let stream = streams.(i) in
    let attack_tripwire = Taskgen.Rng.int_in stream 1000 15000 in
    let attack_kmod = Taskgen.Rng.int_in stream 1000 15000 in
    let target_image =
      Printf.sprintf "img_%04d.raw" (Taskgen.Rng.int stream Rover.image_regions)
    in
    let rogue_name = Printf.sprintf "rk_hook_%04x" (Taskgen.Rng.int stream 0xFFFF) in
    let common ~policy ~periods ~sec_cores =
      run_one ~obs ~counts ~ts ~rt_assignment ~policy ~periods ~sec_cores
        ~attack_tripwire ~attack_kmod ~target_image ~rogue_name
    in
    ( common ~policy:Sim.Policy.Semi_partitioned ~periods:hc_periods ~sec_cores:None,
      common ~policy:Sim.Policy.Fully_partitioned ~periods:hy_periods
        ~sec_cores:(Some hy_cores) )
  in
  let results =
    Hydra_obs.span obs "pool.map" (fun () -> Parallel.Pool.map ?obs ~jobs trial trials)
  in
  (* last trial first, as Fig5.run accumulates: float means depend on
     the order *)
  let outcomes_c = List.rev_map fst (Array.to_list results)
  and outcomes_h = List.rev_map snd (Array.to_list results) in
  stats_acc := List.map (fun o -> o.stats) (outcomes_c @ outcomes_h) @ !stats_acc;
  let n_rt = Array.length ts.rt in
  let rt_ids = Array.init n_rt Fun.id and sec_ids = Array.init n_sec (fun j -> n_rt + j) in
  let hydra_c = summarize ~label:"HYDRA-C" ~periods:hc_periods outcomes_c ~rt_ids ~sec_ids in
  let hydra = summarize ~label:"HYDRA" ~periods:hy_periods outcomes_h ~rt_ids ~sec_ids in
  let speedup c h = if h > 0.0 then Some ((h -. c) /. h *. 100.0) else None in
  let speedups =
    List.filter_map Fun.id
      [ speedup hydra_c.mean_detect_tripwire hydra.mean_detect_tripwire;
        speedup hydra_c.mean_detect_kmod hydra.mean_detect_kmod ]
  in
  { Fig5.trials; horizon; deployment; hydra_c; hydra;
    detection_speedup_pct = Hydra.Metrics.mean speedups;
    context_switch_ratio = hydra_c.mean_context_switches /. hydra.mean_context_switches }

let layers =
  [ ("hydra_c.select", "hydra_c.select"); ("baseline_hydra", "baseline_hydra");
    ("sim.scenario", "sim.scenario"); ("security.store_setup", "security.store_setup");
    ("sim.engine (self)", "sim.engine");
    ("security.integrity.check", "security.integrity.check");
    ("security.kmod.check", "security.kmod.check") ]

let traced ctx ~reference ~before ~rerun ~gc =
  let reg = Hydra_obs.create () in
  let obs = Some reg in
  let counts =
    { regions = Atomic.make 0; bytes = Atomic.make 0; detected = Atomic.make 0 }
  in
  let stats_acc = ref [] in
  let t0 = Common.now_ns () in
  let reports =
    Hydra_obs.span obs "rover.traced" (fun () ->
        List.map
          (traced_report ~obs ~counts ~stats_acc ~jobs:ctx.Common.jobs ~seed:ctx.seed)
          deployments)
  in
  let wall = Common.now_ns () - t0 in
  let failed = if compare reports reference = 0 then 0 else trials * List.length deployments in
  if failed > 0 then prerr_endline "perfbench: traced Fig. 5 reports differ from the untraced run";
  let spans = Common.trace_spans ctx reg in
  let selfs = Spans.self_times spans in
  let maps = Spans.total spans "pool.map" and items = Spans.total spans "pool.item" in
  let jobs = ctx.jobs in
  let domain_ns = Spans.total spans "rover.traced" + ((jobs - 1) * maps) in
  let idle_ns = (jobs * maps) - items in
  let overhead = Common.overhead ~before ~traced:wall ~after:(rerun ()) in
  let ops = trials * List.length deployments in
  let coverage, uncovered =
    Common.layer_table ~selfs ~layers ~idle_ns ~domain_ns ~overhead ~ops
  in
  let fops = float_of_int ops in
  let per_op name = (Common.ms (Common.self_of selfs name) /. fops, ops) in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 !stats_acc in
  let events = sum (fun s -> s.Sim.Engine.decision_events) in
  let engine_self = Common.self_of selfs "sim.engine" in
  let minor, major, gc_ops = gc in
  let count_per_op n = (float_of_int n /. fops, ops) in
  let values =
    [ ("hydra_c.select_ms", per_op "hydra_c.select");
      ("baseline_hydra.self_ms", per_op "baseline_hydra");
      ("pool.busy_share", (float_of_int items /. float_of_int (jobs * maps), 2));
      ("sim.engine.self_ms", per_op "sim.engine");
      ("sim.scenario_ms", per_op "sim.scenario");
      ("sim.decision_events", count_per_op events);
      ("sim.events_per_s", (float_of_int events /. Common.seconds engine_self, List.length !stats_acc));
      ("sim.context_switches", count_per_op (sum (fun s -> s.Sim.Engine.context_switches)));
      ("sim.migrations", count_per_op (sum (fun s -> s.Sim.Engine.migrations)));
      ("security.integrity.check_ms", per_op "security.integrity.check");
      ("security.kmod.check_ms", per_op "security.kmod.check");
      ("security.store_setup_ms", per_op "security.store_setup");
      ("security.regions_checked", count_per_op (Atomic.get counts.regions));
      ("security.bytes_hashed", count_per_op (Atomic.get counts.bytes));
      ("security.detected", count_per_op (Atomic.get counts.detected));
      ("gc.minor_words_per_op", (minor /. float_of_int gc_ops, gc_ops));
      ("gc.major_collections", (float_of_int major /. float_of_int gc_ops, gc_ops));
      ("trace.overhead", (overhead, 1)); ("trace.coverage", (coverage, 1)) ]
    @ Catalog.analysis_counters reg ~ops
  in
  (ops, max failed uncovered, Catalog.fill (Catalog.per_layer ()) values)

(* ------------------------------------------------------------------ *)

(* A report with an RT deadline miss, or one that differs from the
   first pass's, fails all its trials; aggregates that differ from the
   pins fail every trial of the first pass. *)
let run ctx =
  let per_pass = trials * List.length deployments in
  let reference = ref None in
  let check_pass () =
    match pass ~jobs:ctx.Common.jobs ~seed:ctx.seed with
    | exception e ->
        Printf.eprintf "perfbench: rover pass raised %s\n" (Printexc.to_string e);
        (per_pass, per_pass)
    | reports ->
        let failed reference =
          List.fold_left2
            (fun acc (a : Fig5.report) b ->
              if rt_misses a > 0 || compare a b <> 0 then acc + a.trials else acc)
            0 reports reference
        in
        (match !reference with
        | Some r -> (per_pass, failed r)
        | None ->
            reference := Some reports;
            if Common.check_pin ctx ~file:pin_file (pins reports) then
              (per_pass, failed reports)
            else (per_pass, per_pass))
  in
  Common.run_passes ctx ~check_pass
    ~traced:(fun ~before ~rerun ~gc ->
      match !reference with
      | None -> failwith "rover: no untraced pass succeeded"
      | Some reference -> traced ctx ~reference ~before ~rerun ~gc)
