module Task = Rtsched.Task
module Workload = Rtsched.Workload
module Analysis = Hydra.Analysis

type hp_sec = {
  hp_task : Task.sec_task;
  hp_period : Task.time;
  hp_resp : Task.time;
}

(* The list as the production analysis' hp view. *)
let view hp =
  let g = Rtsched.Guan.make (List.length hp) in
  List.iteri
    (fun i h ->
      g.wcet.(i) <- h.hp_task.Task.sec_wcet;
      g.period.(i) <- h.hp_period;
      g.resp.(i) <- h.hp_resp)
    hp;
  g

let fast_response_time ?policy sys ~hp ~wcet ~limit =
  Analysis.response_time ?policy sys ~hp:(view hp) ~n:(List.length hp) ~wcet
    ~limit

let rt_interference (sys : Analysis.system) ~job_wcet x =
  Array.fold_left
    (fun acc core -> acc + Workload.rt_core_interference ~job_wcet core x)
    0 sys.rt_cores

(* Non-carry-in and carry-in interference of one higher-priority
   security task on a window of length [x]. *)
let sec_interference_nc ~job_wcet (h : hp_sec) x =
  Workload.interference ~job_wcet ~window:x
    (Workload.non_carry_in ~wcet:h.hp_task.Task.sec_wcet ~period:h.hp_period x)

let sec_interference_ci ~job_wcet (h : hp_sec) x =
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
  let rt = rt_interference sys ~job_wcet x in
  let nc_total, deltas =
    List.fold_left
      (fun (nc_acc, deltas) h ->
        let nc = sec_interference_nc ~job_wcet h x in
        let ci = sec_interference_ci ~job_wcet h x in
        (nc_acc + nc, max 0 (ci - nc) :: deltas))
      (0, []) hp
  in
  rt + nc_total + top_k_sum (sys.n_cores - 1) deltas

(* Eq. 6 for one fixed carry-in set (tasks are compared by id). *)
let omega_fixed_set (sys : Analysis.system) ~hp ~carry_in_ids ~job_wcet x =
  let rt = rt_interference sys ~job_wcet x in
  List.fold_left
    (fun acc (h : hp_sec) ->
      let i =
        if List.mem h.hp_task.Task.sec_id carry_in_ids then
          sec_interference_ci ~job_wcet h x
        else sec_interference_nc ~job_wcet h x
      in
      acc + i)
    rt hp

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

let response_time_fixed_subset (sys : Analysis.system) ~hp ~carry_in_ids
    ~wcet ~limit =
  fixpoint ~n_cores:sys.n_cores ~wcet ~limit
    (omega_fixed_set sys ~hp ~carry_in_ids ~job_wcet:wcet)

let carry_in_subsets items ~max_size =
  (* Sizes are threaded alongside each subset so extending costs O(1);
     at every level the subsets without [x] come before those with
     it. *)
  let rec go = function
    | [] -> [ (0, []) ]
    | x :: rest ->
        let without = go rest in
        let with_x =
          List.filter_map
            (fun (len, s) ->
              if len < max_size then Some (len + 1, x :: s) else None)
            without
        in
        without @ with_x
  in
  if max_size <= 0 then [ [] ] else List.map snd (go items)

(* Literal Eq. 8: the WCRT is the maximum over carry-in subsets of the
   per-subset fixed points; the task is unschedulable as soon as one
   subset's iteration exceeds the limit. *)
let response_time_exhaustive (sys : Analysis.system) ~hp ~wcet ~limit =
  let subsets =
    carry_in_subsets
      (List.map (fun (h : hp_sec) -> h.hp_task.Task.sec_id) hp)
      ~max_size:(sys.n_cores - 1)
  in
  let step acc carry_in_ids =
    match acc with
    | None -> None
    | Some best ->
        Option.map (max best)
          (response_time_fixed_subset sys ~hp ~carry_in_ids ~wcet ~limit)
  in
  List.fold_left step (Some wcet) subsets

let response_time ?(policy = Analysis.Top_delta) sys ~hp ~wcet ~limit =
  match policy with
  | Analysis.Top_delta -> response_time_top_delta sys ~hp ~wcet ~limit
  | Analysis.Exhaustive -> response_time_exhaustive sys ~hp ~wcet ~limit
