module Task = Rtsched.Task

type t =
  | Hydra_c
  | Hydra
  | Hydra_tmax
  | Global_tmax

let all = [ Hydra_c; Hydra; Hydra_tmax; Global_tmax ]

let name = function
  | Hydra_c -> "HYDRA-C"
  | Hydra -> "HYDRA"
  | Hydra_tmax -> "HYDRA-TMax"
  | Global_tmax -> "GLOBAL-TMax"

type outcome = {
  schedulable : bool;
  periods : int array option;
  sec_cores : int array option;
}

let unschedulable = { schedulable = false; periods = None; sec_cores = None }

let tmax_periods (ts : Task.taskset) =
  let v = Array.make (Array.length ts.sec) 0 in
  Array.iter (fun s -> v.(s.Task.sec_id) <- s.Task.sec_period_max) ts.sec;
  v

let evaluate ?policy ?obs scheme (ts : Task.taskset) ~rt_assignment =
  let n_sec = Array.length ts.sec in
  match scheme with
  | Hydra_c -> (
      let sys = Analysis.make_system ts ~assignment:rt_assignment in
      match Period_selection.select ?policy ?obs sys ts.sec with
      | Period_selection.Unschedulable -> unschedulable
      | Period_selection.Schedulable assignments ->
          { schedulable = true;
            periods = Some (Period_selection.period_vector assignments ~n_sec);
            sec_cores = None })
  | Hydra | Hydra_tmax -> (
      let minimize = scheme = Hydra in
      let sys = Analysis.make_system ts ~assignment:rt_assignment in
      match Baseline_hydra.allocate ?obs ~minimize sys ts.sec with
      | Baseline_hydra.Unschedulable -> unschedulable
      | Baseline_hydra.Schedulable allocs ->
          { schedulable = true;
            periods = Some (Baseline_hydra.period_vector allocs ~n_sec);
            sec_cores = Some (Baseline_hydra.core_vector allocs ~n_sec) })
  | Global_tmax ->
      if Baseline_tmax.global_tmax_schedulable ?obs ts then
        { schedulable = true; periods = Some (tmax_periods ts);
          sec_cores = None }
      else unschedulable
