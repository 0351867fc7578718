type time = int

type rt_task = {
  rt_id : int;
  rt_name : string;
  rt_wcet : time;
  rt_period : time;
  rt_deadline : time;
  rt_prio : int;
}

type sec_task = {
  sec_id : int;
  sec_name : string;
  sec_wcet : time;
  sec_period_max : time;
  sec_prio : int;
}

type taskset = {
  n_cores : int;
  rt : rt_task array;
  sec : sec_task array;
}

exception Invalid_task of string

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid_task s)) fmt

(* Every sum of Eqs. 1 and 6-8 over a taskset within these bounds fits
   in an OCaml int (doc/ANALYSIS.md, "Numeric range"). *)
let max_time = 1 lsl 40
let max_tasks = 1024
let max_cores = 1024

let make_rt ?name ?deadline ~id ~prio ~wcet ~period () =
  let deadline = Option.value deadline ~default:period in
  let name = Option.value name ~default:(Printf.sprintf "rt%d" id) in
  if wcet < 1 then invalid "rt task %s: wcet %d < 1" name wcet;
  if deadline < wcet then
    invalid "rt task %s: deadline %d < wcet %d" name deadline wcet;
  if period < deadline then
    invalid "rt task %s: period %d < deadline %d (constrained deadlines)"
      name period deadline;
  if period > max_time then
    invalid "rt task %s: period %d above the limit %d" name period max_time;
  { rt_id = id; rt_name = name; rt_wcet = wcet; rt_period = period;
    rt_deadline = deadline; rt_prio = prio }

let make_sec ?name ~id ~prio ~wcet ~period_max () =
  let name = Option.value name ~default:(Printf.sprintf "sec%d" id) in
  if wcet < 1 then invalid "security task %s: wcet %d < 1" name wcet;
  if period_max < wcet then
    invalid "security task %s: period_max %d < wcet %d" name period_max wcet;
  if period_max > max_time then
    invalid "security task %s: period_max %d above the limit %d" name
      period_max max_time;
  { sec_id = id; sec_name = name; sec_wcet = wcet;
    sec_period_max = period_max; sec_prio = prio }

let check_unique what proj xs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun x ->
      let k = proj x in
      if Hashtbl.mem tbl k then invalid "duplicate %s %d in taskset" what k;
      Hashtbl.add tbl k ())
    xs

let check_task_count n =
  if n > max_tasks then
    invalid "taskset: %d tasks above the limit %d" n max_tasks

let make_taskset ~n_cores ~rt ~sec =
  if n_cores < 1 then invalid "taskset: n_cores %d < 1" n_cores;
  if n_cores > max_cores then
    invalid "cores %d above the limit %d" n_cores max_cores;
  check_task_count (List.length rt + List.length sec);
  check_unique "rt id" (fun t -> t.rt_id) rt;
  check_unique "rt priority" (fun t -> t.rt_prio) rt;
  check_unique "security id" (fun t -> t.sec_id) sec;
  check_unique "security priority" (fun t -> t.sec_prio) sec;
  { n_cores; rt = Array.of_list rt; sec = Array.of_list sec }

let rt_utilization t = float_of_int t.rt_wcet /. float_of_int t.rt_period

let sec_utilization_at s period =
  float_of_int s.sec_wcet /. float_of_int period

let sec_min_utilization s = sec_utilization_at s s.sec_period_max

let total_rt_utilization ts =
  Array.fold_left (fun acc t -> acc +. rt_utilization t) 0.0 ts.rt

let total_min_utilization ts =
  Array.fold_left (fun acc s -> acc +. sec_min_utilization s)
    (total_rt_utilization ts) ts.sec

let normalized_utilization ts =
  total_min_utilization ts /. float_of_int ts.n_cores

let period_bounds secs =
  let v = Array.make (Array.length secs) 0 in
  Array.iter (fun s -> v.(s.sec_id) <- s.sec_period_max) secs;
  v

let sort_by cmp a =
  let b = Array.copy a in
  Array.sort cmp b;
  b

let sort_rt_by_priority a =
  sort_by (fun x y -> compare x.rt_prio y.rt_prio) a

let sort_sec_by_priority a =
  sort_by (fun x y -> compare x.sec_prio y.sec_prio) a

let assign_rate_monotonic tasks =
  let by_period =
    List.sort
      (fun a b ->
        match compare a.rt_period b.rt_period with
        | 0 -> compare a.rt_id b.rt_id
        | c -> c)
      tasks
  in
  List.mapi (fun i t -> { t with rt_prio = i }) by_period

let pp_rt ppf t =
  Format.fprintf ppf "@[<h>%s(id=%d prio=%d C=%d T=%d D=%d)@]" t.rt_name
    t.rt_id t.rt_prio t.rt_wcet t.rt_period t.rt_deadline

let pp_sec ppf s =
  Format.fprintf ppf "@[<h>%s(id=%d prio=%d C=%d Tmax=%d)@]" s.sec_name
    s.sec_id s.sec_prio s.sec_wcet s.sec_period_max

let pp_taskset ppf ts =
  Format.fprintf ppf "@[<v 2>taskset M=%d U=%.4f:@ " ts.n_cores
    (total_min_utilization ts);
  Array.iter (fun t -> Format.fprintf ppf "%a@ " pp_rt t) ts.rt;
  Array.iter (fun s -> Format.fprintf ppf "%a@ " pp_sec s) ts.sec;
  Format.fprintf ppf "@]"

let show_rt t = Format.asprintf "%a" pp_rt t
