module Task = Rtsched.Task
module Workload = Rtsched.Workload
module Analysis = Hydra.Analysis

(* Non-carry-in and carry-in interference of one higher-priority
   security task on a window of length [x]. *)
let sec_interference_nc ~job_wcet (h : Analysis.hp_sec) x =
  Workload.interference ~job_wcet ~window:x
    (Workload.non_carry_in ~wcet:h.hp_task.Task.sec_wcet ~period:h.hp_period x)

let sec_interference_ci ~job_wcet (h : Analysis.hp_sec) x =
  Workload.interference ~job_wcet ~window:x
    (Workload.carry_in ~wcet:h.hp_task.Task.sec_wcet ~period:h.hp_period
       ~resp:h.hp_resp x)

let top_k_sum k l =
  let sorted = List.sort (fun a b -> Int.compare b a) l in
  let rec take n acc = function
    | [] -> acc
    | _ when n <= 0 -> acc
    | v :: rest -> take (n - 1) (acc + v) rest
  in
  take k 0 sorted

(* Eq. 6 with the Guan-style carry-in bound: every hp security task
   contributes its non-carry-in interference, and the M-1 largest
   carry-in increments are added on top. *)
let omega_top_delta (sys : Analysis.system) ~hp ~job_wcet x =
  let rt = Analysis.rt_interference sys ~job_wcet x in
  let nc_total, deltas =
    List.fold_left
      (fun (nc_acc, deltas) h ->
        let nc = sec_interference_nc ~job_wcet h x in
        let ci = sec_interference_ci ~job_wcet h x in
        (nc_acc + nc, max 0 (ci - nc) :: deltas))
      (0, []) hp
  in
  rt + nc_total + top_k_sum (sys.n_cores - 1) deltas

(* Textbook Eq. 7 iteration from x = C_s. *)
let fixpoint ~n_cores ~wcet ~limit omega =
  let rec iter x =
    if x > limit then None
    else
      let x' = (omega x / n_cores) + wcet in
      if x' = x then Some x else iter x'
  in
  if wcet > limit then None else iter wcet

let response_time_top_delta (sys : Analysis.system) ~hp ~wcet ~limit =
  fixpoint ~n_cores:sys.n_cores ~wcet ~limit
    (omega_top_delta sys ~hp ~job_wcet:wcet)

(* Literal Eq. 8: the WCRT is the maximum over carry-in subsets of the
   per-subset fixed points; the task is unschedulable as soon as one
   subset's iteration exceeds the limit. *)
let response_time_exhaustive (sys : Analysis.system) ~hp ~wcet ~limit =
  let subsets =
    Analysis.carry_in_subsets
      (List.map (fun (h : Analysis.hp_sec) -> h.hp_task.Task.sec_id) hp)
      ~max_size:(sys.n_cores - 1)
  in
  let step acc carry_in_ids =
    match acc with
    | None -> None
    | Some best ->
        Option.map (max best)
          (Analysis.response_time_fixed_subset sys ~hp ~carry_in_ids ~wcet
             ~limit)
  in
  List.fold_left step (Some wcet) subsets

let response_time ?(policy = Analysis.Top_delta) sys ~hp ~wcet ~limit =
  match policy with
  | Analysis.Top_delta -> response_time_top_delta sys ~hp ~wcet ~limit
  | Analysis.Exhaustive -> response_time_exhaustive sys ~hp ~wcet ~limit
