module Task = Rtsched.Task

type time = Task.time

type assignment = {
  sec : Task.sec_task;
  period : time;
  resp : time;
}

type result =
  | Schedulable of assignment list
  | Unschedulable

(* The Algorithm 1 lines 1-4 responses (all periods at their bounds),
   re-indexed by sec_id into a caller-provided vector. The
   admission-control server snapshots these as warm floors for its
   next reconfiguration (doc/SERVER.md). *)
let export_bounds bounds_out sorted resps0 =
  match bounds_out with
  | None -> ()
  | Some out ->
      Array.iteri (fun j (s : Task.sec_task) -> out.(s.sec_id) <- resps0.(j))
        sorted

(* Algorithm 1 (doc/PERFORMANCE.md): no per-probe copies, no post-fix
   suffix refresh, warm-started fixed points. Bit-identical to the
   seed implementation kept as the test oracle
   (test/oracle/naive_selection.ml).

   Invariants:
   - [periods] holds the committed vector (prefix fixed, suffix at the
     bounds); a probe's candidate period is passed by value, never
     written until the search for that position finishes.
   - [resps] holds the responses of the {e last feasible} full vector
     (initially all-bounds). Feasible candidates for a position are
     strictly decreasing (the search recurses on [lo, c-1] after a
     feasible [c]), and responses are monotone non-decreasing as any
     hp period decreases, so [resps] is a valid warm floor for every
     later probe of the same or deeper position.
   - [scratch] receives the suffix responses of the probe in flight;
     it is committed into [resps] only when the probe is feasible.
     The seed's final suffix refresh is subsumed: after the search
     for [index] returns [t_star], [resps] already holds the suffix
     responses under [t_star] (the last committed probe), or — when no
     probe was feasible and [t_star = T_s^max] — the responses of the
     incoming vector, which already had [index] at its bound. *)
let select ?policy ?warm0 ?hints ?bounds_out ?obs sys secs =
  let sorted = Task.sort_sec_by_priority secs in
  let n = Array.length sorted in
  let periods = Array.map (fun s -> s.Task.sec_period_max) sorted in
  let resps = Array.make n 0 in
  let scratch = Array.make n 0 in
  Hydra_obs.add obs "period_selection.tasks" n;
  (* Caller-supplied warm floors for the initial all-bounds pass,
     re-indexed from sec_id to priority position ([0] = no floor). *)
  let warm_init =
    match warm0 with
    | None -> fun _ -> 0
    | Some w -> fun j -> w.(sorted.(j).Task.sec_id)
  in
  (* Caller-supplied search hints (previously selected periods), also
     by sec_id; 0 or out-of-range means no hint. Hints only steer the
     probe order of the per-task search — the result is the same
     minimal feasible period either way (see the search below). *)
  let hint_of =
    match hints with
    | None -> fun _ -> 0
    | Some h ->
        fun index ->
          let id = sorted.(index).Task.sec_id in
          if id < Array.length h then h.(id) else 0
  in
  (* Response of position [j] while probing [candidate] at [index]
     ([index = -1]: no probe, plain evaluation of [periods]). hp
     responses come from [resps] for the already-committed prefix and
     from [scratch] for suffix positions recomputed by this probe. *)
  let resp_probe ~index ~candidate j =
    let s = sorted.(j) in
    let hp =
      List.init j (fun i ->
          { Analysis.hp_task = sorted.(i);
            hp_period = (if i = index then candidate else periods.(i));
            hp_resp = (if i <= index then resps.(i) else scratch.(i)) })
    in
    let warm = if index < 0 then warm_init j else resps.(j) in
    Analysis.response_time ?policy ~warm ?obs sys ~hp
      ~wcet:s.Task.sec_wcet ~limit:s.Task.sec_period_max
  in
  let probe ~index ~candidate ~from =
    let rec go j =
      if j >= n then true
      else
        match resp_probe ~index ~candidate j with
        | None -> false
        | Some r ->
            scratch.(j) <- r;
            go (j + 1)
    in
    go from
  in
  let commit ~from = Array.blit scratch from resps from (n - from) in
  (* Algorithm 1, lines 1-4: all periods at their bounds. *)
  if not (probe ~index:(-1) ~candidate:0 ~from:0) then begin
    Hydra_obs.incr obs "period_selection.unschedulable";
    Unschedulable
  end
  else begin
    commit ~from:0;
    export_bounds bounds_out sorted resps;
    (* Lines 5-9: minimize periods from highest to lowest priority.

       Feasibility is monotone in the candidate (a longer period only
       shrinks the suffix interference), so the minimal feasible
       period is a threshold and {e any} probe order that brackets it
       finds the same value. A plain binary search over
       [resp, T_s^max] costs ~log2 of that whole range per task; when
       the caller supplies a hint (the period this task got in the
       previous selection, via [?hints]), an exponential (galloping)
       search around the hint finds the threshold in O(log d) probes
       where d is the distance the solution moved — O(1) when it did
       not move, which is the admission-control server's common case
       (doc/SERVER.md). Feasible probes stay strictly decreasing on
       every path, preserving the [resps] warm-floor invariant
       above. *)
    for index = 0 to n - 1 do
      let tmax = sorted.(index).Task.sec_period_max in
      let steps = ref 0 in
      let feasible c =
        incr steps;
        if probe ~index ~candidate:c ~from:(index + 1) then begin
          commit ~from:(index + 1);
          true
        end
        else false
      in
      let rec search lo hi best =
        if lo > hi then best
        else
          let c = (lo + hi) / 2 in
          if feasible c then search lo (c - 1) (min best c)
          else search (c + 1) hi best
      in
      (* [last_feasible]/[last_infeasible] were probed; the threshold
         lies in (last infeasible probe, last feasible probe]. *)
      let rec gallop_down lo hint last_feasible k =
        let c = hint - k in
        if c < lo then search lo (last_feasible - 1) last_feasible
        else if feasible c then gallop_down lo hint c (2 * k)
        else search (c + 1) (last_feasible - 1) last_feasible
      in
      let rec gallop_up hint last_infeasible k =
        let c = hint + k in
        if c >= tmax then search (last_infeasible + 1) tmax tmax
        else if feasible c then search (last_infeasible + 1) (c - 1) c
        else gallop_up hint c (2 * k)
      in
      let lo = resps.(index) in
      let hint = hint_of index in
      let t_star =
        if hint >= lo && hint <= tmax then
          if hint = tmax then
            (* feasible by the Algorithm 1 invariant — no probe *)
            gallop_down lo hint hint 1
          else if feasible hint then gallop_down lo hint hint 1
          else gallop_up hint hint 1
        else search lo tmax tmax
      in
      Hydra_obs.add obs "period_selection.search.steps" !steps;
      Hydra_obs.observe obs "period_selection.search.steps_per_task" !steps;
      periods.(index) <- t_star
    done;
    Hydra_obs.incr obs "period_selection.schedulable";
    let assignments =
      List.init n (fun j ->
          { sec = sorted.(j); period = periods.(j); resp = resps.(j) })
    in
    Schedulable assignments
  end

let vector_of field assignments ~n_sec =
  let v = Array.make n_sec 0 in
  List.iter (fun a -> v.(a.sec.Task.sec_id) <- field a) assignments;
  v

let period_vector assignments ~n_sec =
  vector_of (fun a -> a.period) assignments ~n_sec

let resp_vector assignments ~n_sec =
  vector_of (fun a -> a.resp) assignments ~n_sec
