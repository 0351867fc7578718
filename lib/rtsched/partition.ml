type heuristic = Best_fit | First_fit | Worst_fit

let heuristic_name = function
  | Best_fit -> "best-fit"
  | First_fit -> "first-fit"
  | Worst_fit -> "worst-fit"

(* The left fold over the core's newest-first list: another summation
   order could flip a best-fit or worst-fit tie in the last bit. *)
let core_utilization tasks =
  List.fold_left (fun acc t -> acc +. Task.rt_utilization t) 0.0 tasks

(* One core's RT tasks in priority order, highest first, with their
   committed Eq. 1 WCRTs, in arrays with room for every task that may
   join: [hp] holds their WCETs and periods, so that the first [j]
   entries are the interferers of the task at [j] (unless it shares a
   priority). [fits] leaves the candidate's slot [pos], its WCRT
   [fresh] and the new WCRTs of the tasks below it ([next], by current
   index) for [commit]. *)
type core = {
  mutable size : int;
  mutable tasks : Task.rt_task list;  (* the utilization fold's list *)
  hp : Rta_uniproc.hp;
  deadline : Task.time array;
  prio : int array;
  resp : Task.time array;
  next : Task.time array;
  mutable pos : int;
  mutable fresh : Task.time;
}

let empty_core cap =
  { size = 0; tasks = []; hp = Rta_uniproc.make cap;
    deadline = Array.make cap 0; prio = Array.make cap 0;
    resp = Array.make cap 0; next = Array.make cap 0; pos = 0; fresh = 0 }

(* The number of tasks of [c] with a priority value below [p] (from
   [i] on): the tasks that preempt a task of priority [p]. *)
let rec above c p i =
  if i < c.size && c.prio.(i) < p then above c p (i + 1) else i

(* The index of the first task of [c] that shares task [j]'s
   priority: its hp set is the tasks before it. *)
let rec tie_start c j =
  if j > 0 && c.prio.(j - 1) = c.prio.(j) then tie_start c (j - 1) else j

(* The tasks of [c] from [j] on, with [t] added above them, each warm
   from its committed WCRT plus C_t: whether each still meets its
   deadline, leaving the new WCRTs in [c.next]. For the fixed point of
   task [j], [t] stands in the slot [k] of the first task of [j]'s
   priority, so that the first [k + 1] entries are [j]'s new hp set;
   the slot is restored after. *)
let rec below tally c (t : Task.rt_task) j =
  j = c.size
  ||
  if c.prio.(j) = t.rt_prio then begin
    c.next.(j) <- c.resp.(j);
    below tally c t (j + 1)
  end
  else begin
    let hp = c.hp and k = tie_start c j in
    let c_j = hp.wcet.(j) and d = c.deadline.(j) in
    let c_k = hp.wcet.(k) and t_k = hp.period.(k) in
    hp.wcet.(k) <- t.rt_wcet;
    hp.period.(k) <- t.rt_period;
    let r =
      Rta_uniproc.response_time ~tally hp ~n:(k + 1) ~job_wcet:c_j
        ~start:(c.resp.(j) + t.rt_wcet) ~limit:d
    in
    hp.wcet.(k) <- c_k;
    hp.period.(k) <- t_k;
    r <= d
    && begin
         c.next.(j) <- r;
         below tally c t (j + 1)
       end
  end

(* Whether [t] fits on [c]. Adding [t] changes only the hp sets of the
   tasks below it, each by [t] itself: [t] runs cold against the tasks
   above it, and each task below, warm from its committed WCRT plus
   C_t, which lies in [C, lfp] of its new demand (doc/PERFORMANCE.md,
   "Eq. 1 on arrays, incremental best-fit"), stopping at the first
   miss. A task of [t]'s own priority keeps its hp set. *)
let fits tally c (t : Task.rt_task) =
  let pos = above c t.rt_prio 0 in
  let r =
    Rta_uniproc.response_time ~tally c.hp ~n:pos ~job_wcet:t.rt_wcet
      ~start:t.rt_wcet ~limit:t.rt_deadline
  in
  r <= t.rt_deadline
  && begin
       c.pos <- pos;
       c.fresh <- r;
       below tally c t pos
     end

(* Puts [t] on [c], which [fits] last accepted it for. *)
let commit c (t : Task.rt_task) =
  let pos = c.pos and hp = c.hp in
  for j = c.size - 1 downto pos do
    hp.wcet.(j + 1) <- hp.wcet.(j);
    hp.period.(j + 1) <- hp.period.(j);
    c.deadline.(j + 1) <- c.deadline.(j);
    c.prio.(j + 1) <- c.prio.(j);
    c.resp.(j + 1) <- c.next.(j)
  done;
  hp.wcet.(pos) <- t.rt_wcet;
  hp.period.(pos) <- t.rt_period;
  c.deadline.(pos) <- t.rt_deadline;
  c.prio.(pos) <- t.rt_prio;
  c.resp.(pos) <- c.fresh;
  c.size <- c.size + 1;
  c.tasks <- t :: c.tasks

(* The core [heuristic] picks among those [usable] that [t] fits on,
   lowest index on ties, or -1. *)
let pick heuristic tally cores ~usable t =
  let n_cores = Array.length cores in
  let rec go m best best_u =
    if m = n_cores then best
    else if not (usable.(m) && fits tally cores.(m) t) then go (m + 1) best best_u
    else
      match heuristic with
      | First_fit -> m
      | Best_fit | Worst_fit ->
          let u = core_utilization cores.(m).tasks in
          let takes =
            best < 0
            || (match heuristic with Best_fit -> u > best_u | _ -> u < best_u)
          in
          if takes then go (m + 1) m u else go (m + 1) best best_u
  in
  go 0 (-1) 0.0

let choose_core heuristic lists task =
  let cap =
    1 + Array.fold_left (fun acc l -> Int.max acc (List.length l)) 0 lists
  in
  let cores = Array.init (Array.length lists) (fun _ -> empty_core cap) in
  let tally = Guan.make_tally () in
  (* Each core's state, its tasks added highest priority first so that
     each runs cold; a core whose own tasks already miss a deadline is
     no candidate. *)
  let load c tasks =
    let sorted =
      List.stable_sort
        (fun (a : Task.rt_task) b -> Int.compare a.rt_prio b.rt_prio)
        tasks
    in
    let ok =
      List.for_all (fun t -> fits tally c t && (commit c t; true)) sorted
    in
    c.tasks <- tasks;
    ok
  in
  let usable = Array.mapi (fun m l -> load cores.(m) l) lists in
  match pick heuristic tally cores ~usable task with
  | -1 -> None
  | m -> Some m

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
  let cores = Array.init ts.n_cores (fun _ -> empty_core (Array.length ts.rt)) in
  (* The fixed points count into a tally that no one reads. *)
  let tally = Guan.make_tally () in
  let usable = Array.make ts.n_cores true in
  let assignment = Array.make (Array.length ts.rt) (-1) in
  let place (i, task) =
    match pick heuristic tally cores ~usable task with
    | -1 -> false
    | m ->
        commit cores.(m) task;
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
