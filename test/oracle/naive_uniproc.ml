type time = Rtsched.Task.time

type hp_task = { hp_wcet : time; hp_period : time }

let demand_at ~hp ~wcet t =
  List.fold_left
    (fun acc h ->
      acc + Rtsched.Workload.request_bound ~wcet:h.hp_wcet ~period:h.hp_period t)
    wcet hp

let response_time ?start ~tally ~hp ~wcet ~limit () =
  let rec iter x =
    if x > limit then None
    else begin
      tally.Rtsched.Guan.iterations <- tally.Rtsched.Guan.iterations + 1;
      let d = demand_at ~hp ~wcet x in
      if d = x then Some x else iter d
    end
  in
  let r =
    if wcet > limit then None else iter (Option.value start ~default:wcet)
  in
  Rtsched.Guan.count_verdict tally r;
  r

let rt_response_time ~tally ~core (t : Rtsched.Task.rt_task) =
  let hp =
    List.filter_map
      (fun (o : Rtsched.Task.rt_task) ->
        if o.rt_id <> t.rt_id && o.rt_prio < t.rt_prio then
          Some { hp_wcet = o.rt_wcet; hp_period = o.rt_period }
        else None)
      core
  in
  response_time ~tally ~hp ~wcet:t.rt_wcet ~limit:t.rt_deadline ()

let core_rt_schedulable core =
  let tally = Rtsched.Guan.make_tally () in
  List.for_all (fun t -> Option.is_some (rt_response_time ~tally ~core t)) core

let partitioned_rt_schedulable (ts : Rtsched.Task.taskset) ~assignment =
  let cores = Array.make ts.n_cores [] in
  Array.iteri
    (fun i t ->
      let m = assignment.(i) in
      cores.(m) <- t :: cores.(m))
    ts.rt;
  Array.for_all core_rt_schedulable cores
