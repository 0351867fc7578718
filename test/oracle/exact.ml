module Task = Rtsched.Task

type verdict =
  | Schedulable of int list
  | Unschedulable of int
  | Hyperperiod_too_large

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let lcm_periods tasks =
  List.fold_left
    (fun acc (t : Task.rt_task) ->
      let p = t.Task.rt_period in
      acc / gcd acc p * p)
    1 tasks

(* Deliberately naive tick-by-tick simulation: at every tick run the
   highest-priority task with pending work. O(hyperperiod x n), which
   is exactly why it is only an oracle for tests. *)
let simulate ?(max_hyperperiod = 1_000_000) tasks =
  let hyper = lcm_periods tasks in
  if hyper > max_hyperperiod || hyper <= 0 then Hyperperiod_too_large
  else begin
    let by_prio =
      List.sort
        (fun (a : Task.rt_task) b -> compare a.Task.rt_prio b.Task.rt_prio)
        tasks
      |> Array.of_list
    in
    let n = Array.length by_prio in
    let remaining = Array.make n 0 in
    let released_at = Array.make n 0 in
    let worst = Array.make n 0 in
    let miss = ref None in
    let t = ref 0 in
    while !miss = None && !t < hyper do
      (* releases *)
      for i = 0 to n - 1 do
        let task = by_prio.(i) in
        if !t mod task.Task.rt_period = 0 then begin
          if remaining.(i) > 0 then miss := Some task.Task.rt_id;
          remaining.(i) <- task.Task.rt_wcet;
          released_at.(i) <- !t
        end
      done;
      (* deadline checks before executing this tick *)
      for i = 0 to n - 1 do
        let task = by_prio.(i) in
        if remaining.(i) > 0 && !t >= released_at.(i) + task.Task.rt_deadline
        then
          match !miss with
          | None -> miss := Some task.Task.rt_id
          | Some _ -> ()
      done;
      (* run the highest-priority pending task for one tick *)
      (let rec dispatch i =
         if i < n then
           if remaining.(i) > 0 then begin
             remaining.(i) <- remaining.(i) - 1;
             if remaining.(i) = 0 then begin
               let resp = !t + 1 - released_at.(i) in
               if resp > worst.(i) then worst.(i) <- resp;
               if resp > by_prio.(i).Task.rt_deadline then
                 miss := Some by_prio.(i).Task.rt_id
             end
           end
           else dispatch (i + 1)
       in
       dispatch 0);
      incr t
    done;
    (* any job still pending at the hyperperiod boundary would re-release *)
    (match !miss with
    | None ->
        for i = 0 to n - 1 do
          if remaining.(i) > 0 then miss := Some by_prio.(i).Task.rt_id
        done
    | Some _ -> ());
    match !miss with
    | Some id -> Unschedulable id
    | None ->
        (* report worst responses in the caller's task order *)
        let worst_of id =
          let rec find i =
            if by_prio.(i).Task.rt_id = id then worst.(i) else find (i + 1)
          in
          find 0
        in
        Schedulable (List.map (fun (t : Task.rt_task) -> worst_of t.Task.rt_id) tasks)
  end

let schedulable ?max_hyperperiod tasks =
  match simulate ?max_hyperperiod tasks with
  | Schedulable _ -> Some true
  | Unschedulable _ -> Some false
  | Hyperperiod_too_large -> None
