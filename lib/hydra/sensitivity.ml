module Task = Rtsched.Task

type report = {
  global_headroom_pct : int option;
  per_task_headroom_pct : (Task.sec_task * int option) list;
}

let scale_wcet wcet ~scale_pct = Int.max 1 (wcet * scale_pct / 100)

let scaled_tasks secs ~scale_pct ~only =
  Array.map
    (fun (s : Task.sec_task) ->
      let applies =
        match only with
        | None -> true
        | Some (o : Task.sec_task) -> o.Task.sec_id = s.Task.sec_id
      in
      if applies then
        { s with Task.sec_wcet = scale_wcet s.Task.sec_wcet ~scale_pct }
      else s)
    secs

let schedulable_with_scale ?policy sys secs ~scale_pct ~only =
  let scaled = scaled_tasks secs ~scale_pct ~only in
  Array.for_all (fun s -> s.Task.sec_wcet <= s.Task.sec_period_max) scaled
  && (match Period_selection.select ?policy sys scaled with
     | Period_selection.Schedulable _ -> true
     | Period_selection.Unschedulable -> false)

let max_pct = 1000 (* the search ceiling, 10x *)

(* Largest feasible percentage in [100, max_pct]; feasibility is
   monotone in the scale (more execution never helps), so binary
   search applies. *)
let headroom ?policy sys secs ~only =
  if not (schedulable_with_scale ?policy sys secs ~scale_pct:100 ~only) then
    None
  else if schedulable_with_scale ?policy sys secs ~scale_pct:max_pct ~only
  then Some max_pct
  else begin
    let rec search lo hi =
      (* invariant: lo feasible, hi infeasible *)
      if hi - lo <= 1 then lo
      else
        let mid = (lo + hi) / 2 in
        if schedulable_with_scale ?policy sys secs ~scale_pct:mid ~only then
          search mid hi
        else search lo mid
    in
    Some (search 100 max_pct)
  end

let analyze ?policy sys secs =
  let sorted = Task.sort_sec_by_priority secs in
  { global_headroom_pct = headroom ?policy sys secs ~only:None;
    per_task_headroom_pct =
      Array.to_list sorted
      |> List.map (fun s ->
             (s, headroom ?policy sys secs ~only:(Some s))) }

let pp_headroom ppf = function
  | None -> Format.pp_print_string ppf "unschedulable at nominal WCETs"
  | Some pct -> Format.fprintf ppf "%d%% (%.2fx)" pct (float_of_int pct /. 100.0)

let render ppf r =
  Format.fprintf ppf "@[<v>WCET sensitivity:@ ";
  Format.fprintf ppf "  all security tasks together: %a@ " pp_headroom
    r.global_headroom_pct;
  List.iter
    (fun ((s : Task.sec_task), h) ->
      Format.fprintf ppf "  %-16s alone: %a@ " s.Task.sec_name pp_headroom h)
    r.per_task_headroom_pct;
  Format.fprintf ppf "@]"
