module Rta_global = Rtsched.Rta_global
module Task = Rtsched.Task

(* One kernel buffer per taskset; its tally is reported once. *)
let analyze ?obs (ts : Task.taskset) =
  let n_cores = ts.n_cores in
  let runs = Rtsched.Guan.runs ~n_cores in
  let gtasks =
    Rta_global.of_taskset ts ~sec_period:(fun s -> s.Task.sec_period_max)
  in
  let resps = Rta_global.response_times ~runs ~n_cores gtasks in
  Analysis.record_rta obs "rta.global" (Rtsched.Guan.tally runs);
  (gtasks, resps)

let global_tmax_schedulable ?obs ts =
  List.for_all Option.is_some (snd (analyze ?obs ts))

let global_response_times ?obs ts =
  let gtasks, resps = analyze ?obs ts in
  List.map2 (fun (g : Rta_global.gtask) r -> (g.g_name, r)) gtasks resps
