type time = Task.time

let non_carry_in ~wcet ~period x =
  if x <= 0 then 0
  else
    (* single division: q = x / T, r = x mod T *)
    let q = x / period in
    let r = x - (q * period) in
    (q * wcet) + Int.min r wcet

let carry_in ~wcet ~period ~resp x =
  if x <= 0 then 0
  else
    let xbar = wcet - 1 + period - resp in
    let body = non_carry_in ~wcet ~period (Int.max (x - xbar) 0) in
    body + Int.min x (wcet - 1)

let interference ~job_wcet ~window w =
  Int.max 0 (Int.min w (window - job_wcet + 1))

let rt_core_workload tasks x =
  List.fold_left
    (fun acc (t : Task.rt_task) ->
      acc + non_carry_in ~wcet:t.rt_wcet ~period:t.rt_period x)
    0 tasks

let rt_core_interference ~job_wcet tasks x =
  interference ~job_wcet ~window:x (rt_core_workload tasks x)

let request_bound ~wcet ~period x =
  if x <= 0 then 0 else (x + period - 1) / period * wcet
