module Task = Rtsched.Task
module Rta = Rtsched.Rta_uniproc
module Guan = Rtsched.Guan

type time = Task.time

type alloc = {
  sec : Task.sec_task;
  core : int;
  period : time;
  resp : time;
}

type result =
  | Schedulable of alloc list
  | Unschedulable

let core_response_time ~tally (sys : Analysis.system) ~core ~placed s =
  let rt_hp =
    List.map
      (fun (t : Task.rt_task) ->
        { Rta.hp_wcet = t.rt_wcet; hp_period = t.rt_period })
      sys.rt_cores.(core)
  in
  let sec_hp =
    List.filter_map
      (fun a ->
        if a.core = core && a.sec.Task.sec_prio < s.Task.sec_prio then
          Some { Rta.hp_wcet = a.sec.Task.sec_wcet; hp_period = a.period }
        else None)
      placed
  in
  Rta.response_time ~tally ~hp:(rt_hp @ sec_hp) ~wcet:s.Task.sec_wcet
    ~limit:s.Task.sec_period_max ()

(* Security-task utilization already committed to a core. *)
let core_sec_utilization placed core =
  List.fold_left
    (fun acc a ->
      if a.core = core then
        acc +. (float_of_int a.sec.Task.sec_wcet /. float_of_int a.period)
      else acc)
    0.0 placed

(* Pick a feasible core: with [minimize], the one minimizing the
   response time (HYDRA's "maximum monitoring frequency"); without,
   classic best-fit by committed security utilization, since with
   every period at its bound every feasible core yields the same
   period. Ties go to the lowest core index. *)
let best_core ~minimize tally sys ~placed s =
  let better (m, r) (m', r') =
    let takes =
      if minimize then r' < r
      else core_sec_utilization placed m' > core_sec_utilization placed m
    in
    if takes then (m', r') else (m, r)
  in
  let rec go m best =
    if m >= sys.Analysis.n_cores then best
    else
      let best =
        match core_response_time ~tally sys ~core:m ~placed s with
        | None -> best
        | Some r -> (
            match best with
            | Some b -> Some (better b (m, r))
            | None -> Some (m, r))
      in
      go (m + 1) best
  in
  go 0 None

let greedy ~tally obs ~minimize sys secs =
  let sorted = Task.sort_sec_by_priority secs in
  let rec place placed = function
    | [] -> Schedulable (List.rev placed)
    | s :: rest -> (
        match best_core ~minimize tally sys ~placed s with
        | None -> Unschedulable
        | Some (core, resp) ->
            Hydra_obs.incr obs "baseline_hydra.placements";
            let period = if minimize then resp else s.Task.sec_period_max in
            place ({ sec = s; core; period; resp } :: placed) rest)
  in
  place [] (Array.to_list sorted)

(* One Eq. 1 tally per allocation, reported once when it returns. *)
let allocate ?obs ~minimize sys secs =
  let tally = Guan.make_tally () in
  let r = greedy ~tally obs ~minimize sys secs in
  Analysis.record_rta obs "rta.uniproc" tally;
  r

(* --- HYDRA-coordinated: per-core Algorithm 1 ---------------------- *)

(* Response time of alloc [a] given the current periods of the other
   allocations on its core (encoded in [placed]). *)
let realloc_resp tally sys placed (a : alloc) =
  core_response_time ~tally sys ~core:a.core ~placed a.sec

(* Recompute responses of [allocs] (priority order) against each
   other's current periods; [None] if someone misses its bound. *)
let recompute_core tally sys allocs =
  let rec go done_ = function
    | [] -> Some (List.rev done_)
    | a :: rest -> (
        match realloc_resp tally sys done_ a with
        | None -> None
        | Some resp -> go ({ a with resp } :: done_) rest)
  in
  go [] allocs

(* Minimum feasible period for position [idx] of a core's allocation
   list (priority order): binary search in [resp, bound], feasible when
   every lower-priority core-mate still meets its bound. *)
let min_core_period obs tally sys allocs idx =
  (* Mutate-and-restore on an array view instead of a List.mapi
     rebuild per probe (recompute_core still takes the list it needs
     anyway, but the candidate substitution itself is O(1)). *)
  let arr = Array.of_list allocs in
  let a = arr.(idx) in
  let feasible candidate =
    arr.(idx) <- { a with period = candidate };
    let ok = Option.is_some (recompute_core tally sys (Array.to_list arr)) in
    arr.(idx) <- a;
    ok
  in
  let steps = ref 0 in
  let rec search lo hi best =
    if lo > hi then best
    else begin
      incr steps;
      let c = lo + ((hi - lo) / 2) in
      if feasible c then search lo (c - 1) (Int.min best c)
      else search (c + 1) hi best
    end
  in
  let t_star =
    search a.resp a.sec.Task.sec_period_max a.sec.Task.sec_period_max
  in
  Hydra_obs.add obs "baseline_hydra.search.steps" !steps;
  t_star

let minimize_core obs tally sys allocs =
  let n = List.length allocs in
  let rec loop allocs idx =
    if idx >= n then
      (* final response refresh so callers see consistent WCRTs *)
      match recompute_core tally sys allocs with
      | Some refreshed -> refreshed
      | None -> assert false
    else
      (* refresh responses first: minimizing higher-priority periods
         grows the lower-priority responses, and the search's lower
         bound must be the task's *current* WCRT *)
      match recompute_core tally sys allocs with
      | None -> assert false (* invariant: the previous step was feasible *)
      | Some refreshed ->
          let t_star = min_core_period obs tally sys refreshed idx in
          let updated =
            List.mapi
              (fun i x -> if i = idx then { x with period = t_star } else x)
              refreshed
          in
          loop updated (idx + 1)
  in
  loop allocs 0

let coordinated ~tally obs sys secs =
  match greedy ~tally obs ~minimize:false sys secs with
  | Unschedulable -> Unschedulable
  | Schedulable allocs ->
      let per_core core =
        List.filter (fun a -> a.core = core) allocs
      in
      let minimized =
        List.init sys.Analysis.n_cores per_core
        |> List.concat_map (minimize_core obs tally sys)
      in
      (* restore global priority order *)
      let ordered =
        List.sort
          (fun a b -> Int.compare a.sec.Task.sec_prio b.sec.Task.sec_prio)
          minimized
      in
      Schedulable ordered

let allocate_coordinated ?obs sys secs =
  let tally = Guan.make_tally () in
  let r = coordinated ~tally obs sys secs in
  Analysis.record_rta obs "rta.uniproc" tally;
  r

let vector_of field default allocs ~n_sec =
  let v = Array.make n_sec default in
  List.iter (fun a -> v.(a.sec.Task.sec_id) <- field a) allocs;
  v

let period_vector allocs ~n_sec = vector_of (fun a -> a.period) 0 allocs ~n_sec
let core_vector allocs ~n_sec = vector_of (fun a -> a.core) (-1) allocs ~n_sec
