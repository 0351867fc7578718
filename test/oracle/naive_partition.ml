module Task = Rtsched.Task
module Partition = Rtsched.Partition

let core_utilization tasks =
  List.fold_left (fun acc t -> acc +. Task.rt_utilization t) 0.0 tasks

(* A candidate core is feasible if the core's tasks, with the new task
   added, all pass exact TDA. *)
let feasible_on core task = Naive_uniproc.core_rt_schedulable (task :: core)

let choose_core heuristic cores task =
  let candidates =
    Array.to_list cores
    |> List.mapi (fun m tasks -> (m, tasks))
    |> List.filter (fun (_, tasks) -> feasible_on tasks task)
  in
  let better (ma, ua) (mb, ub) =
    match heuristic with
    | Partition.First_fit -> if mb < ma then (mb, ub) else (ma, ua)
    | Partition.Best_fit -> if ub > ua then (mb, ub) else (ma, ua)
    | Partition.Worst_fit -> if ub < ua then (mb, ub) else (ma, ua)
  in
  match candidates with
  | [] -> None
  | (m0, t0) :: rest ->
      let scored = List.map (fun (m, ts) -> (m, core_utilization ts)) rest in
      let init = (m0, core_utilization t0) in
      let m, _ = List.fold_left better init scored in
      Some m

let partition_rt ?(heuristic = Partition.Best_fit) (ts : Task.taskset) =
  let order =
    (* decreasing utilization, ties by id for determinism *)
    let a = Array.mapi (fun i t -> (i, t)) ts.rt in
    Array.sort
      (fun (_, a) (_, b) ->
        match Float.compare (Task.rt_utilization b) (Task.rt_utilization a)
        with
        | 0 -> Int.compare a.Task.rt_id b.Task.rt_id
        | c -> c)
      a;
    a
  in
  let cores = Array.make ts.n_cores [] in
  let assignment = Array.make (Array.length ts.rt) (-1) in
  let place (i, task) =
    match choose_core heuristic cores task with
    | None -> false
    | Some m ->
        cores.(m) <- task :: cores.(m);
        assignment.(i) <- m;
        true
  in
  if Array.for_all place order then Some assignment else None
