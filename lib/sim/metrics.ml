let stats_of_sim_id (stats : Engine.stats) ~sim_id =
  let found = ref None in
  Array.iter
    (fun (ts : Engine.task_stats) ->
      if ts.ts_task.Engine.st_id = sim_id then found := Some ts)
    stats.per_task;
  match !found with Some ts -> ts | None -> raise Not_found

let sum_over stats sim_ids field =
  Array.fold_left
    (fun acc sim_id -> acc + field (stats_of_sim_id stats ~sim_id))
    0 sim_ids

let deadline_misses stats ~sim_ids =
  sum_over stats sim_ids (fun ts -> ts.Engine.ts_deadline_misses)

let mean_response stats ~sim_id =
  let ts = stats_of_sim_id stats ~sim_id in
  if ts.Engine.ts_finished = 0 then Float.nan
  else
    float_of_int ts.Engine.ts_total_response
    /. float_of_int ts.Engine.ts_finished

let max_response stats ~sim_id =
  (stats_of_sim_id stats ~sim_id).Engine.ts_max_response

let throughput stats ~sim_id =
  let ts = stats_of_sim_id stats ~sim_id in
  float_of_int ts.Engine.ts_finished /. float_of_int stats.Engine.horizon

let core_utilization (stats : Engine.stats) ~n_cores =
  float_of_int stats.busy_ticks
  /. float_of_int (n_cores * stats.Engine.horizon)

let equal_stats (a : Engine.stats) (b : Engine.stats) =
  a.horizon = b.horizon
  && a.per_task = b.per_task
  && a.context_switches = b.context_switches
  && a.preemptions = b.preemptions
  && a.migrations = b.migrations
  && a.busy_ticks = b.busy_ticks
  && a.idle_ticks = b.idle_ticks
  && a.decision_events = b.decision_events
