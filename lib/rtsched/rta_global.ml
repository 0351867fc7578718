type time = Task.time

type gtask = {
  g_name : string;
  g_wcet : time;
  g_period : time;
  g_deadline : time;
}

let response_times ~runs ~n_cores tasks =
  (* Analyze in priority order: task [i] runs the Eq. 7 fixed point
     against the Guan bound over entries [0 .. i-1] of [hp], which hold
     the already-analyzed higher-priority tasks. *)
  let hp = Guan.make (List.length tasks) in
  let top = Array.make (n_cores - 1) 0 in
  let rec go i = function
    | [] -> []
    | t :: rest -> (
        match
          Guan.fixpoint ~runs ~n_cores ~wcet:t.g_wcet ~limit:t.g_deadline
            (Guan.bound hp ~n:i ~top ~runs ~job_wcet:t.g_wcet)
        with
        | Some resp as r ->
            hp.wcet.(i) <- t.g_wcet;
            hp.period.(i) <- t.g_period;
            hp.resp.(i) <- resp;
            r :: go (i + 1) rest
        | None -> None :: List.map (fun _ -> None) rest)
  in
  go 0 tasks

let of_taskset (ts : Task.taskset) ~sec_period =
  let rt =
    Task.sort_rt_by_priority ts.rt |> Array.to_list
    |> List.map (fun (t : Task.rt_task) ->
           { g_name = t.rt_name; g_wcet = t.rt_wcet; g_period = t.rt_period;
             g_deadline = t.rt_deadline })
  in
  let sec =
    Task.sort_sec_by_priority ts.sec |> Array.to_list
    |> List.map (fun (s : Task.sec_task) ->
           let p = sec_period s in
           { g_name = s.sec_name; g_wcet = s.sec_wcet; g_period = p;
             g_deadline = p })
  in
  rt @ sec
