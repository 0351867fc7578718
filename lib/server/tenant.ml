module Task = Rtsched.Task
module Partition = Rtsched.Partition
module Analysis = Hydra.Analysis
module Period_selection = Hydra.Period_selection

type 'a admission = Admitted of 'a | Rejected of string | Invalid of string

(* One resident RT task: its wire spec plus the core it was admitted
   to. Placements are frozen at admission; only [Set_cores]/[Init]
   repartition. *)
type rt_resident = { spec : Protocol.rt_spec; core : int }

type t = {
  name : string;
  mutable cores : int;
  mutable rt : rt_resident list;  (* arrival order; rt_id = position *)
  mutable sec : Protocol.sec_spec list;  (* arrival order; sec_id = prio = position *)
  mutable sys : Analysis.system;
  mutable last : Period_selection.result option;
  mutable dirty : bool;
  mutable selects : int;
}

let name t = t.name

(* ------------------------------------------------------------------ *)
(* Model building *)

(* RT tasks from the resident list: id = arrival position, priorities
   rebuilt rate-monotonically over the whole set (renumbering
   preserves relative order within every core, so unchanged cores stay
   TDA-feasible and their workload columns are untouched). *)
let rt_tasks residents =
  let plain =
    List.mapi
      (fun i (r : rt_resident) ->
        Task.make_rt ~name:r.spec.Protocol.r_name ~id:i ~prio:i
          ~wcet:r.spec.Protocol.r_wcet ~period:r.spec.Protocol.r_period ())
      residents
  in
  let ranked = Task.assign_rate_monotonic plain in
  match ranked with
  | [] -> [||]
  | hd :: _ ->
      let arr = Array.make (List.length ranked) hd in
      List.iter (fun (tk : Task.rt_task) -> arr.(tk.rt_id) <- tk) ranked;
      arr

let sec_tasks specs =
  Array.of_list
    (List.mapi
       (fun i (s : Protocol.sec_spec) ->
         Task.make_sec ~name:s.Protocol.s_name ~id:i ~prio:i
           ~wcet:s.Protocol.s_wcet ~period_max:s.Protocol.s_period_max ())
       specs)

let by_prio = List.sort (fun a b -> compare a.Task.rt_prio b.Task.rt_prio)

(* Per-core RT task lists (priority-sorted) for frozen placements. *)
let build_cores tasks residents n_cores =
  let cores = Array.make n_cores [] in
  List.iteri
    (fun i (r : rt_resident) -> cores.(r.core) <- tasks.(i) :: cores.(r.core))
    residents;
  Array.map by_prio cores

let taskset t =
  Task.make_taskset ~n_cores:t.cores
    ~rt:(Array.to_list (rt_tasks t.rt))
    ~sec:(Array.to_list (sec_tasks t.sec))

let assignment t = Array.of_list (List.map (fun r -> r.core) t.rt)

let snapshot t = (taskset t, assignment t)

(* ------------------------------------------------------------------ *)
(* Admission edits *)

let dup_rt t n = List.exists (fun r -> r.spec.Protocol.r_name = n) t.rt
let dup_sec t n = List.exists (fun (s : Protocol.sec_spec) -> s.s_name = n) t.sec

let guard f = try f () with Task.Invalid_task m -> Invalid m

let find_dup names =
  let seen = Hashtbl.create 8 in
  List.fold_left
    (fun acc n ->
      match acc with
      | Some _ -> acc
      | None ->
          if Hashtbl.mem seen n then Some n
          else begin
            Hashtbl.add seen n ();
            None
          end)
    None names

(* An arrival may not take the tenant past the task count
   [Task.make_taskset] admits. *)
let check_arrival t =
  Task.check_task_count (List.length t.rt + List.length t.sec + 1)

(* Full build from scratch: partition everything, fresh system. Also
   [set_cores]'s rebuild. [Task.make_taskset] bounds the core and task
   counts. *)
let create ~name ~cores ~rt:rt_specs ~sec:sec_specs =
  guard (fun () ->
      (match
         find_dup (List.map (fun (s : Protocol.rt_spec) -> s.r_name) rt_specs)
       with
      | Some n -> raise (Task.Invalid_task (Printf.sprintf "duplicate RT task %S" n))
      | None -> ());
      (match
         find_dup (List.map (fun (s : Protocol.sec_spec) -> s.s_name) sec_specs)
       with
      | Some n ->
          raise
            (Task.Invalid_task (Printf.sprintf "duplicate security task %S" n))
      | None -> ());
      let residents =
        List.map (fun spec -> { spec; core = -1 }) rt_specs
      in
      let ts =
        Task.make_taskset ~n_cores:cores
          ~rt:(Array.to_list (rt_tasks residents))
          ~sec:(Array.to_list (sec_tasks sec_specs))
      in
      match Partition.partition_rt ts with
      | None -> Rejected "RT taskset is not partitionable"
      | Some asg ->
          let residents =
            List.mapi (fun i spec -> { spec; core = asg.(i) }) rt_specs
          in
          let sys = Analysis.make_system ts ~assignment:asg in
          Admitted
            { name; cores; rt = residents; sec = sec_specs; sys;
              last = None; dirty = true; selects = 0 })

let set_cores t cores =
  match
    create ~name:t.name ~cores ~rt:(List.map (fun r -> r.spec) t.rt)
      ~sec:t.sec
  with
  | Admitted fresh ->
      t.cores <- fresh.cores;
      t.rt <- fresh.rt;
      t.sys <- fresh.sys;
      t.dirty <- true;
      Admitted ()
  | Rejected r -> Rejected r
  | Invalid m -> Invalid m

let rt_arrive t spec =
  if dup_rt t spec.Protocol.r_name then
    Invalid (Printf.sprintf "duplicate RT task %S" spec.Protocol.r_name)
  else
    guard (fun () ->
        check_arrival t;
        let n = List.length t.rt in
        let residents = t.rt @ [ { spec; core = -1 } ] in
        let tasks = rt_tasks residents in
        let incoming = tasks.(n) in
        (* per-core lists of the resident tasks under the new global RM
           numbering (the incoming task is not placed yet); best-fit
           admission picks among the TDA-feasible cores *)
        let cores = build_cores tasks t.rt t.cores in
        match Partition.choose_core Best_fit cores incoming with
        | None ->
            Rejected
              (Printf.sprintf "no feasible core for RT task %S"
                 spec.Protocol.r_name)
        | Some m ->
            t.rt <- t.rt @ [ { spec; core = m } ];
            let new_cores = build_cores tasks t.rt t.cores in
            let changed = Array.make t.cores false in
            changed.(m) <- true;
            t.sys <- Analysis.refresh_rt_cores t.sys new_cores ~changed;
            t.dirty <- true;
            Admitted ())

let rt_leave t name =
  match List.find_opt (fun r -> r.spec.Protocol.r_name = name) t.rt with
  | None -> Invalid (Printf.sprintf "unknown RT task %S" name)
  | Some departed ->
      let m = departed.core in
      t.rt <- List.filter (fun r -> r.spec.Protocol.r_name <> name) t.rt;
      let tasks = rt_tasks t.rt in
      let new_cores = build_cores tasks t.rt t.cores in
      let changed = Array.make t.cores false in
      changed.(m) <- true;
      t.sys <- Analysis.refresh_rt_cores t.sys new_cores ~changed;
      t.dirty <- true;
      Admitted ()

let sec_arrive t spec =
  if dup_sec t spec.Protocol.s_name then
    Invalid (Printf.sprintf "duplicate security task %S" spec.Protocol.s_name)
  else
    guard (fun () ->
        check_arrival t;
        (* validate eagerly so a bad spec never enters the state *)
        ignore
          (Task.make_sec ~name:spec.Protocol.s_name ~id:0 ~prio:0
             ~wcet:spec.Protocol.s_wcet
             ~period_max:spec.Protocol.s_period_max ());
        t.sec <- t.sec @ [ spec ];
        t.dirty <- true;
        Admitted ())

let sec_leave t name =
  if not (List.exists (fun (s : Protocol.sec_spec) -> s.s_name = name) t.sec)
  then Invalid (Printf.sprintf "unknown security task %S" name)
  else begin
    t.sec <-
      List.filter (fun (s : Protocol.sec_spec) -> s.s_name <> name) t.sec;
    t.dirty <- true;
    Admitted ()
  end

let touch t = t.dirty <- true

(* ------------------------------------------------------------------ *)
(* Materialization *)

let materialize ?obs ?ctx t =
  (match t.last with
  | Some r when not t.dirty -> r
  | _ ->
      let secs = sec_tasks t.sec in
      let n_sec = Array.length secs in
      (* Previous periods as search hints: any value is sound (hints
         only steer the probe order of the exact threshold search), so
         they survive every edit. Stale sec_ids after a [sec_leave]
         renumbering at worst waste probes. *)
      let hints =
        match t.last with
        | Some (Period_selection.Schedulable assignments) ->
            (* sized to the previous ids, which may exceed [n_sec]
               right after a [sec_leave] renumbering *)
            let m =
              List.fold_left
                (fun acc (a : Period_selection.assignment) ->
                  max acc (a.sec.Task.sec_id + 1))
                n_sec assignments
            in
            Some (Period_selection.period_vector assignments ~n_sec:m)
        | _ -> None
      in
      (* On a traced request, the selection gets its own child span —
         the dominant cost of the pipeline, attributed to the worker
         domain that ran it. *)
      let sel_ctx = Option.map Hydra_obs.Trace_ctx.child ctx in
      let result =
        Hydra_obs.trace_span obs sel_ctx "server.select" (fun () ->
            Period_selection.select ?hints ?obs t.sys secs)
      in
      t.selects <- t.selects + 1;
      Hydra_obs.incr obs "server.select";
      t.last <- Some result;
      t.dirty <- false;
      result)

let stats t =
  let cs = Analysis.cache_stats t.sys in
  { Protocol.st_cores = t.cores; st_rt = List.length t.rt;
    st_sec = List.length t.sec; st_selects = t.selects;
    st_cache_entries = cs.Analysis.cs_entries;
    st_cache_capacity = cs.Analysis.cs_capacity;
    st_cache_hits = cs.Analysis.cs_hits; st_cache_misses = cs.Analysis.cs_misses;
    st_cache_evictions = cs.Analysis.cs_evictions;
    st_cache_refreshes = cs.Analysis.cs_refreshes }

let selects t = t.selects
let iterations t = (Analysis.cache_stats t.sys).Analysis.cs_iterations
