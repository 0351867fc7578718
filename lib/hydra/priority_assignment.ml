module Task = Rtsched.Task

type ordering =
  | Designer
  | Wcet_ascending
  | Wcet_descending
  | Bound_ascending
  | Utilization_descending

let all_orderings =
  [ Designer; Wcet_ascending; Wcet_descending; Bound_ascending;
    Utilization_descending ]

let ordering_name = function
  | Designer -> "designer"
  | Wcet_ascending -> "wcet-asc"
  | Wcet_descending -> "wcet-desc"
  | Bound_ascending -> "tmax-asc"
  | Utilization_descending -> "util-desc"

let comparator ordering (a : Task.sec_task) (b : Task.sec_task) =
  let key =
    match ordering with
    | Designer -> compare a.Task.sec_prio b.Task.sec_prio
    | Wcet_ascending -> compare a.Task.sec_wcet b.Task.sec_wcet
    | Wcet_descending -> compare b.Task.sec_wcet a.Task.sec_wcet
    | Bound_ascending -> compare a.Task.sec_period_max b.Task.sec_period_max
    | Utilization_descending ->
        (* floats: Float.compare is total on NaN where polymorphic
           compare's ordering is fragile (rule D5) *)
        Float.compare (Task.sec_min_utilization b)
          (Task.sec_min_utilization a)
  in
  match key with 0 -> compare a.Task.sec_id b.Task.sec_id | c -> c

let apply ordering secs =
  let sorted = Array.copy secs in
  Array.sort (comparator ordering) sorted;
  Array.mapi (fun i s -> { s with Task.sec_prio = i }) sorted

let select_with ?policy sys secs ordering =
  Period_selection.select ?policy sys (apply ordering secs)

let first_schedulable ?policy sys secs =
  let try_one ordering =
    match select_with ?policy sys secs ordering with
    | Period_selection.Schedulable assignments -> Some (ordering, assignments)
    | Period_selection.Unschedulable -> None
  in
  List.find_map try_one all_orderings

let best_by_distance ?policy sys secs =
  let n_sec = Array.length secs in
  let bounds = Task.period_bounds secs in
  let candidates =
    List.filter_map
      (fun ordering ->
        match select_with ?policy sys secs ordering with
        | Period_selection.Schedulable assignments ->
            let periods = Period_selection.period_vector assignments ~n_sec in
            Some
              ( ordering,
                assignments,
                Metrics.normalized_distance_to_bound ~periods ~bounds )
        | Period_selection.Unschedulable -> None)
      all_orderings
  in
  List.fold_left
    (fun best ((_, _, d) as candidate) ->
      match best with
      | Some (_, _, d') when d' >= d -> best
      | Some _ | None -> Some candidate)
    None candidates
