module Task = Rtsched.Task
module Analysis = Hydra.Analysis
module Period_selection = Hydra.Period_selection

let hp_list (sorted : Task.sec_task array) periods resps j =
  List.init j (fun i ->
      { Analysis.hp_task = sorted.(i); hp_period = periods.(i);
        hp_resp = resps.(i) })

(* Response time of the task at position [j] given the current period
   vector; [None] when it exceeds T_j^max. *)
let resp_at policy sys sorted periods resps j =
  let s = sorted.(j) in
  Naive_analysis.response_time ?policy sys
    ~hp:(hp_list sorted periods resps j)
    ~wcet:s.Task.sec_wcet ~limit:s.Task.sec_period_max

(* Recompute response times for positions [from..n-1] into a copy of
   [resps]; [None] as soon as some task misses its bound. *)
let recompute_from policy sys sorted periods resps ~from =
  let n = Array.length sorted in
  let resps = Array.copy resps in
  let rec go j =
    if j >= n then Some resps
    else
      match resp_at policy sys sorted periods resps j with
      | None -> None
      | Some r ->
          resps.(j) <- r;
          go (j + 1)
  in
  go from

(* Is the whole lower-priority suffix schedulable if position [index]
   takes period [candidate]? *)
let candidate_feasible policy sys sorted periods resps ~index ~candidate =
  let periods = Array.copy periods in
  periods.(index) <- candidate;
  Option.is_some
    (recompute_from policy sys sorted periods resps ~from:(index + 1))

(* Algorithm 2: binary search for the minimum feasible period of the
   task at [index], collecting every feasible probe and returning the
   least one. T_s^max is feasible by the Algorithm 1 invariant. *)
let min_feasible_period policy sys ~sorted ~periods ~resps ~index =
  let s = sorted.(index) in
  let tmax = s.Task.sec_period_max in
  let rec search lo hi best =
    if lo > hi then best
    else begin
      let c = (lo + hi) / 2 in
      if candidate_feasible policy sys sorted periods resps ~index ~candidate:c
      then search lo (c - 1) (min best c)
      else search (c + 1) hi best
    end
  in
  search resps.(index) tmax tmax

let select ?policy ?bounds_out sys secs =
  let sorted = Task.sort_sec_by_priority secs in
  let n = Array.length sorted in
  let periods = Array.map (fun s -> s.Task.sec_period_max) sorted in
  let resps = Array.make n 0 in
  (* Algorithm 1, lines 1-4: all periods at their bounds. *)
  match recompute_from policy sys sorted periods resps ~from:0 with
  | None -> Period_selection.Unschedulable
  | Some resps0 ->
      (match bounds_out with
      | None -> ()
      | Some out ->
          Array.iteri
            (fun j (s : Task.sec_task) -> out.(s.sec_id) <- resps0.(j))
            sorted);
      Array.blit resps0 0 resps 0 n;
      (* Lines 5-9: minimize periods from highest to lowest priority,
         refreshing the lower-priority response times after each fix. *)
      let rec minimize index =
        if index >= n then ()
        else begin
          let t_star =
            min_feasible_period policy sys ~sorted ~periods ~resps ~index
          in
          periods.(index) <- t_star;
          (match
             recompute_from policy sys sorted periods resps ~from:(index + 1)
           with
          | Some updated -> Array.blit updated 0 resps 0 n
          | None ->
              (* Unreachable: t_star was checked feasible (or is the
                 invariant-feasible T_s^max). *)
              assert false);
          minimize (index + 1)
        end
      in
      minimize 0;
      Period_selection.Schedulable
        (List.init n (fun j ->
             { Period_selection.sec = sorted.(j); period = periods.(j);
               resp = resps.(j) }))
