module Task = Rtsched.Task
module Partition = Rtsched.Partition

type config = {
  n_cores : int;
  rt_count : int * int;
  sec_count : int * int;
  rt_period : int * int;
  sec_period_max : int * int;
  sec_util_share : float * float;
  util_groups : int;
  ticks_per_ms : int;
  partition_heuristic : Partition.heuristic;
  max_attempts : int;
}

let default_config ~n_cores =
  {
    n_cores;
    rt_count = (3 * n_cores, 10 * n_cores);
    sec_count = (2 * n_cores, 5 * n_cores);
    rt_period = (10, 1000);
    sec_period_max = (1500, 3000);
    sec_util_share = (0.30, 0.50);
    util_groups = 10;
    ticks_per_ms = 10;
    partition_heuristic = Partition.Best_fit;
    max_attempts = 200;
  }

let group_bounds cfg i =
  let m = float_of_int cfg.n_cores in
  ((0.01 +. (0.1 *. float_of_int i)) *. m, (0.1 +. (0.1 *. float_of_int i)) *. m)

type generated = {
  taskset : Task.taskset;
  rt_assignment : int array;
  target_utilization : float;
}

(* Convert a utilization into an integer WCET for a given period,
   keeping it within [1, period]. *)
let wcet_of_utilization u period =
  let c = int_of_float (Float.round (u *. float_of_int period)) in
  max 1 (min period c)

let draw_rt_tasks cfg rng ~count ~utilization =
  let utils =
    Randfixedsum.sample rng ~n:count ~total:utilization ~lo:0.0 ~hi:1.0
  in
  let lo, hi = cfg.rt_period in
  let unprioritized =
    Array.to_list utils
    |> List.mapi (fun i u ->
           let period =
             cfg.ticks_per_ms * Loguniform.sample_int rng ~lo ~hi
           in
           let wcet = wcet_of_utilization u period in
           Task.make_rt ~id:i ~prio:0 ~wcet ~period ())
  in
  (* prio=0 placeholders are replaced by the rate-monotonic order. *)
  Task.assign_rate_monotonic unprioritized

let draw_sec_tasks cfg rng ~count ~utilization =
  let utils =
    Randfixedsum.sample rng ~n:count ~total:utilization ~lo:0.0 ~hi:1.0
  in
  let lo, hi = cfg.sec_period_max in
  Array.to_list utils
  |> List.mapi (fun i u ->
         let period_max =
           cfg.ticks_per_ms * Loguniform.sample_int rng ~lo ~hi
         in
         let wcet = wcet_of_utilization u period_max in
         Task.make_sec ~id:i ~prio:i ~wcet ~period_max ())

let attempt cfg rng ~group =
  let u_lo, u_hi = group_bounds cfg group in
  let u_total = Rng.float_in rng u_lo u_hi in
  let share_lo, share_hi = cfg.sec_util_share in
  let sec_share = Rng.float_in rng share_lo share_hi in
  let u_sec = u_total *. sec_share in
  let u_rt = u_total -. u_sec in
  let n_rt = Rng.int_in rng (fst cfg.rt_count) (snd cfg.rt_count) in
  let n_sec = Rng.int_in rng (fst cfg.sec_count) (snd cfg.sec_count) in
  (* Per-task utilization cannot exceed 1; infeasible splits (total
     above the component count) cannot happen since U <= M <= counts,
     but guard anyway. *)
  if u_rt > float_of_int n_rt || u_sec > float_of_int n_sec then None
  else
    let rt = draw_rt_tasks cfg rng ~count:n_rt ~utilization:u_rt in
    let sec = draw_sec_tasks cfg rng ~count:n_sec ~utilization:u_sec in
    let taskset = Task.make_taskset ~n_cores:cfg.n_cores ~rt ~sec in
    match Partition.partition_rt ~heuristic:cfg.partition_heuristic taskset with
    | None -> None
    | Some rt_assignment ->
        Some { taskset; rt_assignment; target_utilization = u_total }

let generate cfg rng ~group =
  if group < 0 || group >= cfg.util_groups then
    invalid_arg
      (Printf.sprintf "Generator.generate: group %d not in [0, %d)" group
         cfg.util_groups);
  let rec go n = if n = 0 then None
    else
      match attempt cfg rng ~group with
      | Some g -> Some g
      | None -> go (n - 1)
  in
  go cfg.max_attempts
