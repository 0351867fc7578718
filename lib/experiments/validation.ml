module Task = Rtsched.Task
module Generator = Taskgen.Generator

type task_check = {
  tc_name : string;
  tc_bound : int;
  tc_observed : int;
}

type result = {
  tasksets_checked : int;
  violations : task_check list;
  rt_misses : int;
  mean_tightness : float;
  min_tightness : float;
  tightness_permil_q : (int * int * int * int) option;
  checks : int;
}

let validate_one ?policy ?obs ~horizon (g : Generator.generated) =
  let ts = g.Generator.taskset in
  let sys =
    Hydra.Analysis.make_system ts ~assignment:g.Generator.rt_assignment
  in
  match Hydra.Period_selection.select ?policy ?obs sys ts.Task.sec with
  | Hydra.Period_selection.Unschedulable -> None
  | Hydra.Period_selection.Schedulable assignments ->
      let n_sec = Array.length ts.Task.sec in
      let periods = Hydra.Period_selection.period_vector assignments ~n_sec in
      let resps = Hydra.Period_selection.resp_vector assignments ~n_sec in
      let built =
        Sim.Scenario.of_taskset ts ~rt_assignment:g.Generator.rt_assignment
          ~policy:Sim.Policy.Semi_partitioned ~sec_periods:periods ()
      in
      let stats =
        Sim.Engine.run ?obs ~n_cores:ts.Task.n_cores ~horizon
          built.Sim.Scenario.tasks
      in
      let checks =
        Array.to_list ts.Task.sec
        |> List.map (fun (s : Task.sec_task) ->
               { tc_name = s.Task.sec_name;
                 tc_bound = resps.(s.Task.sec_id);
                 tc_observed =
                   Sim.Metrics.max_response stats
                     ~sim_id:built.Sim.Scenario.sec_sim_ids.(s.Task.sec_id) })
      in
      let rt_misses =
        Sim.Metrics.deadline_misses stats
          ~sim_ids:built.Sim.Scenario.rt_sim_ids
      in
      Some (checks, rt_misses)

let run ?policy ?config ?(horizon = 100_000) ?jobs ?obs ~n_cores
    ~tasksets ~seed () =
  Hydra_obs.span obs "validation.run" @@ fun () ->
  let config =
    Option.value config ~default:(Generator.default_config ~n_cores)
  in
  let rng = Taskgen.Rng.create seed in
  (* Pre-split streams: taskset i is a function of (seed, i) only, so
     generation + simulation parallelize without changing any number. *)
  let streams = Taskgen.Rng.split_n rng tasksets in
  let results =
    Parallel.Pool.map ?obs ?jobs
      (fun i ->
        Hydra_obs.span obs "validation.item" @@ fun () ->
        let group = i mod config.Generator.util_groups in
        match Generator.generate config streams.(i) ~group with
        | None -> None
        | Some g -> validate_one ?policy ?obs ~horizon g)
      tasksets
  in
  (* Fold in ascending index order — the same accumulation the
     sequential loop performed, so the tightness means are stable. *)
  let all_checks = ref [] in
  let rt_misses = ref 0 in
  let checked = ref 0 in
  Array.iter
    (function
      | None -> ()
      | Some (checks, misses) ->
          incr checked;
          rt_misses := !rt_misses + misses;
          all_checks := checks @ !all_checks)
    results;
  let checks = !all_checks in
  let permil =
    List.filter_map
      (fun c ->
        (* jobs that never completed within the horizon contribute no
           tightness sample; bound 0 cannot happen (WCRT >= wcet >= 1) *)
        if c.tc_observed = 0 then None
        else Some (c.tc_observed * 1000 / c.tc_bound))
      checks
  in
  (* Integer permil samples feed both the report quantiles and (under
     obs) the validation.tightness_permil histogram; sampling happens
     here on the main domain, after the pool joined, in a fixed order. *)
  List.iter (fun p -> Hydra_obs.sample obs "validation.tightness_permil" p)
    permil;
  let tightness =
    List.filter_map
      (fun c ->
        if c.tc_observed = 0 then None
        else Some (float_of_int c.tc_observed /. float_of_int c.tc_bound))
      checks
  in
  let tightness_permil_q =
    match permil with
    | [] -> None
    | _ ->
        let h = Hydra_obs.Histogram.of_list permil in
        Some
          ( Hydra_obs.Histogram.quantile h 0.50,
            Hydra_obs.Histogram.quantile h 0.95,
            Hydra_obs.Histogram.quantile h 0.99,
            match Hydra_obs.Histogram.max_value h with
            | Some m -> m
            | None -> 0 )
  in
  { tasksets_checked = !checked;
    violations = List.filter (fun c -> c.tc_observed > c.tc_bound) checks;
    rt_misses = !rt_misses;
    mean_tightness = Hydra.Metrics.mean tightness;
    min_tightness = List.fold_left min infinity tightness;
    tightness_permil_q;
    checks = List.length checks }

let render ppf r =
  Format.fprintf ppf
    "@[<v>Analysis-vs-simulation validation:@ \
     tasksets simulated: %d (security task checks: %d)@ \
     bound violations: %d%s@ \
     RT deadline misses: %d@ \
     tightness observed/bound: mean %.3f, min %.3f@ @]"
    r.tasksets_checked r.checks
    (List.length r.violations)
    (if r.violations = [] then " (analysis is sound on this sample)"
     else " (BUG: unsound analysis!)")
    r.rt_misses r.mean_tightness r.min_tightness;
  (match r.tightness_permil_q with
  | None -> ()
  | Some (p50, p95, p99, mx) ->
      Format.fprintf ppf
        "tightness quantiles (permil): p50=%d p95=%d p99=%d max=%d@." p50 p95
        p99 mx);
  List.iter
    (fun c ->
      Format.fprintf ppf "VIOLATION %s: observed %d > bound %d@." c.tc_name
        c.tc_observed c.tc_bound)
    r.violations
