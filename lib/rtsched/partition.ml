type heuristic = Best_fit | First_fit | Worst_fit

let heuristic_name = function
  | Best_fit -> "best-fit"
  | First_fit -> "first-fit"
  | Worst_fit -> "worst-fit"

let core_utilization tasks =
  List.fold_left (fun acc t -> acc +. Task.rt_utilization t) 0.0 tasks

(* A candidate core is feasible if the core's tasks, with the new task
   added, all pass exact TDA. *)
let feasible_on core task = Rta_uniproc.core_rt_schedulable (task :: core)

let choose_core heuristic cores task =
  let candidates =
    Array.to_list cores
    |> List.mapi (fun m tasks -> (m, tasks))
    |> List.filter (fun (_, tasks) -> feasible_on tasks task)
  in
  let better (ma, ua) (mb, ub) =
    match heuristic with
    | First_fit -> if mb < ma then (mb, ub) else (ma, ua)
    | Best_fit -> if ub > ua then (mb, ub) else (ma, ua)
    | Worst_fit -> if ub < ua then (mb, ub) else (ma, ua)
  in
  match candidates with
  | [] -> None
  | (m0, t0) :: rest ->
      let scored = List.map (fun (m, ts) -> (m, core_utilization ts)) rest in
      let init = (m0, core_utilization t0) in
      let m, _ = List.fold_left better init scored in
      Some m

let partition_rt ?(heuristic = Best_fit) (ts : Task.taskset) =
  let order =
    (* decreasing utilization, ties by id for determinism *)
    let a = Array.mapi (fun i t -> (i, t)) ts.rt in
    Array.sort
      (fun (_, a) (_, b) ->
        (* Float.compare, not polymorphic compare: utilizations are
           floats and the specialized comparator is total on NaN
           (rule D5, doc/STATIC_ANALYSIS.md). *)
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

let cores_of_assignment (ts : Task.taskset) assignment =
  let cores = Array.make ts.n_cores [] in
  Array.iteri
    (fun i t ->
      let m = assignment.(i) in
      cores.(m) <- t :: cores.(m))
    ts.rt;
  (* Keep a stable, priority-sorted order on each core. *)
  Array.map
    (fun tasks ->
      List.sort
        (fun (a : Task.rt_task) b -> compare a.rt_prio b.rt_prio)
        tasks)
    cores
