module Task = Rtsched.Task
module Workload = Rtsched.Workload

type time = Task.time

(* Per-system memo of the raw per-core RT workload vector at each
   window x (doc/PERFORMANCE.md). Keyed on x only: the RT partition is
   frozen for the lifetime of the system value, and
   Workload.rt_core_workload depends on nothing else. The job_wcet
   clamp of Eq. 3 is applied per query, on top of the cached vector.
   The table is plain (not thread-safe) state: a system value must not
   be shared across domains — the sweep builds one per taskset per
   worker, see analysis.mli.

   [c_capacity] bounds the entry count for long-lived systems (the
   admission-control daemon, doc/SERVER.md): 0 means unbounded; a
   positive bound triggers a deterministic flush-on-full eviction
   (the whole table is reset before the insert that would exceed the
   bound — no hash-order-dependent victim choice). The hit/miss/
   eviction/refresh tallies back the {!cache_stats} accessor; the
   [?obs] counters are recorded alongside, they are not a substitute
   (a daemon holds one registry for many tenant systems). *)
type cache = {
  rt_wl : (int, int array) Hashtbl.t;
  mutable c_capacity : int;
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_evictions : int;
  mutable c_refreshes : int;
}

let fresh_cache () =
  { rt_wl = Hashtbl.create 64; c_capacity = 0; c_hits = 0; c_misses = 0;
    c_evictions = 0; c_refreshes = 0 }

type cache_stats = {
  cs_entries : int;
  cs_capacity : int;
  cs_hits : int;
  cs_misses : int;
  cs_evictions : int;
  cs_refreshes : int;
}

type system = {
  n_cores : int;
  rt_cores : Task.rt_task list array;
  cache : cache;
}

type hp_sec = {
  hp_task : Task.sec_task;
  hp_period : time;
  hp_resp : time;
}

type carry_in_policy = Top_delta | Exhaustive

let make_system (ts : Task.taskset) ~assignment =
  { n_cores = ts.n_cores;
    rt_cores = Rtsched.Partition.cores_of_assignment ts assignment;
    cache = fresh_cache () }

let cache_stats sys =
  let c = sys.cache in
  { cs_entries = Hashtbl.length c.rt_wl;
    cs_capacity = c.c_capacity;
    cs_hits = c.c_hits;
    cs_misses = c.c_misses;
    cs_evictions = c.c_evictions;
    cs_refreshes = c.c_refreshes }

let set_cache_capacity sys capacity =
  let c = sys.cache in
  c.c_capacity <- max 0 capacity;
  (* Re-establish the bound immediately so a capacity lowered below the
     current size cannot linger over it until the next miss. *)
  if c.c_capacity > 0 && Hashtbl.length c.rt_wl > c.c_capacity then begin
    Hashtbl.reset c.rt_wl;
    c.c_evictions <- c.c_evictions + 1
  end

(* Per-core cache invalidation (doc/SERVER.md): the new partition
   differs from the cached one only on the cores flagged in [changed],
   so every memoized window keeps the unchanged cores' workloads and
   recomputes just the changed columns. Bit-identity is by definition:
   after the refresh every cached vector equals what
   [Workload.rt_workloads new_cores x] would compute from scratch. *)
let refresh_rt_cores sys new_cores ~changed =
  if Array.length new_cores <> sys.n_cores
     || Array.length changed <> sys.n_cores
  then
    invalid_arg
      "Analysis.refresh_rt_cores: core count changed — build a fresh system \
       with make_system instead";
  let c = sys.cache in
  let refreshed = ref 0 in
  Hashtbl.iter
    (fun x wl ->
      for m = 0 to sys.n_cores - 1 do
        if changed.(m) then begin
          wl.(m) <- Workload.rt_core_workload new_cores.(m) x;
          incr refreshed
        end
      done)
    c.rt_wl;
  c.c_refreshes <- c.c_refreshes + !refreshed;
  { sys with rt_cores = new_cores }

let rt_interference sys ~job_wcet x =
  Array.fold_left
    (fun acc core -> acc + Workload.rt_core_interference ~job_wcet core x)
    0 sys.rt_cores

(* Cached [rt_interference]: memoized raw per-core workloads, clamp
   applied per call. Bit-identical to the uncached term because
   interference = clamp(rt_core_workload core x) either way. *)
let rt_interference_cached obs sys ~job_wcet x =
  let c = sys.cache in
  let wl =
    match Hashtbl.find_opt c.rt_wl x with
    | Some wl ->
        Hydra_obs.incr obs "analysis.cache.hit";
        c.c_hits <- c.c_hits + 1;
        wl
    | None ->
        Hydra_obs.incr obs "analysis.cache.miss";
        c.c_misses <- c.c_misses + 1;
        if c.c_capacity > 0 && Hashtbl.length c.rt_wl >= c.c_capacity then begin
          (* flush-on-full: deterministic, keeps the table <= capacity *)
          Hashtbl.reset c.rt_wl;
          c.c_evictions <- c.c_evictions + 1;
          Hydra_obs.incr obs "analysis.cache.evicted"
        end;
        let wl = Workload.rt_workloads sys.rt_cores x in
        Hashtbl.add c.rt_wl x wl;
        wl
  in
  let acc = ref 0 in
  for m = 0 to Array.length wl - 1 do
    acc := !acc + Workload.interference ~job_wcet ~window:x wl.(m)
  done;
  !acc

(* Non-carry-in and carry-in interference of one higher-priority
   security task on a window of length [x]. *)
let sec_interference_nc ~job_wcet h x =
  Workload.interference ~job_wcet ~window:x
    (Workload.non_carry_in ~wcet:h.hp_task.Task.sec_wcet ~period:h.hp_period x)

let sec_interference_ci ~job_wcet h x =
  Workload.interference ~job_wcet ~window:x
    (Workload.carry_in ~wcet:h.hp_task.Task.sec_wcet ~period:h.hp_period
       ~resp:h.hp_resp x)

let top_k_sum k l =
  let sorted = List.sort (fun a b -> Int.compare b a) l in
  let rec take n acc = function
    | [] -> acc
    | _ when n <= 0 -> acc
    | v :: rest -> take (n - 1) (acc + v) rest
  in
  take k 0 sorted

(* Eq. 6 with the Guan-style carry-in bound: every hp security task
   contributes its non-carry-in interference, and the M-1 largest
   carry-in increments are added on top. *)
let omega_top_delta obs sys ~hp ~job_wcet x =
  let rt = rt_interference_cached obs sys ~job_wcet x in
  let nc_total, deltas =
    List.fold_left
      (fun (nc_acc, deltas) h ->
        let nc = sec_interference_nc ~job_wcet h x in
        let ci = sec_interference_ci ~job_wcet h x in
        (nc_acc + nc, max 0 (ci - nc) :: deltas))
      (0, []) hp
  in
  rt + nc_total + top_k_sum (sys.n_cores - 1) deltas

(* Eq. 6 for one fixed carry-in set (tasks are compared by id). *)
let omega_fixed_sets sys ~hp ~carry_in_ids ~job_wcet x =
  let rt = rt_interference sys ~job_wcet x in
  List.fold_left
    (fun acc h ->
      let i =
        if List.mem h.hp_task.Task.sec_id carry_in_ids then
          sec_interference_ci ~job_wcet h x
        else sec_interference_nc ~job_wcet h x
      in
      acc + i)
    rt hp

(* Eq. 7 fixed-point iteration for a monotone Omega, started at
   [max wcet start]. [start = 0] (the default) is the textbook
   iteration from x = C_s. Any start in [wcet, lfp] yields the same
   least fixed point and the same convergence verdict: the iterates
   x -> Omega(x)/M + C_s form a monotone chain that cannot cross lfp
   from below without landing on it, and every fixed point reachable
   from a start <= lfp is lfp itself (proof sketch in
   doc/PERFORMANCE.md). [iters] accumulates the iteration count
   locally (an int ref costs nothing measurable); the caller reports
   it to [obs] once. *)
let fixpoint ?(start = 0) ~iters ~n_cores ~wcet ~limit omega =
  let rec iter x =
    if x > limit then None
    else begin
      incr iters;
      let x' = (omega x / n_cores) + wcet in
      if x' = x then Some x else iter x'
    end
  in
  if wcet > limit then None else iter (max wcet start)

let record_fixpoint obs iters r =
  Hydra_obs.add obs "analysis.fixpoint.iterations" !iters;
  match r with
  | Some _ -> Hydra_obs.incr obs "analysis.fixpoint.converged"
  | None -> Hydra_obs.incr obs "analysis.fixpoint.diverged"

let carry_in_subsets items ~max_size =
  (* Sizes are threaded alongside each subset so extending costs O(1);
     the historical version recomputed [List.length s] inside the
     [filter_map], making generation O(n^2) in the subset count. The
     construction (and hence the output order) is unchanged:
     without @ with_x at every level. *)
  let rec go = function
    | [] -> [ (0, []) ]
    | x :: rest ->
        let without = go rest in
        let with_x =
          List.filter_map
            (fun (len, s) ->
              if len < max_size then Some (len + 1, x :: s) else None)
            without
        in
        without @ with_x
  in
  if max_size <= 0 then [ [] ] else List.map snd (go items)

(* Literal Eq. 8: the WCRT is the maximum over carry-in subsets of the
   per-subset fixed points; the task is unschedulable as soon as one
   subset's iteration exceeds the limit. Uncached; reached only as the
   fallback of the branch-and-bound path below. *)
let response_time_exhaustive ?obs sys ~hp ~wcet ~limit =
  let subsets =
    carry_in_subsets
      (List.map (fun h -> h.hp_task.Task.sec_id) hp)
      ~max_size:(sys.n_cores - 1)
  in
  Hydra_obs.add obs "analysis.carry_in.subsets" (List.length subsets);
  let step acc carry_in_ids =
    match acc with
    | None -> None
    | Some best -> (
        Hydra_obs.observe obs "analysis.carry_in.set_size"
          (List.length carry_in_ids);
        let omega = omega_fixed_sets sys ~hp ~carry_in_ids ~job_wcet:wcet in
        let iters = ref 0 in
        let r = fixpoint ~iters ~n_cores:sys.n_cores ~wcet ~limit omega in
        record_fixpoint obs iters r;
        match r with
        | None -> None
        | Some r -> Some (max best r))
  in
  List.fold_left step (Some wcet) subsets

(* Eq. 7 for one fixed carry-in set; exposed for the property test
   that Top_delta upper-bounds every admissible subset. *)
let response_time_fixed_subset ?obs sys ~hp ~carry_in_ids ~wcet ~limit =
  let iters = ref 0 in
  let r =
    fixpoint ~iters ~n_cores:sys.n_cores ~wcet ~limit
      (omega_fixed_sets sys ~hp ~carry_in_ids ~job_wcet:wcet)
  in
  record_fixpoint obs iters r;
  r

(* ------------------------------------------------------------------ *)
(* Cached RT workloads and warm-started fixed points
   (doc/PERFORMANCE.md): bit-identical to the reference analysis in
   test/oracle/naive_analysis.ml; only the amount of work differs. *)

let response_time_top_delta ?(warm = 0) ?obs sys ~hp ~wcet ~limit =
  Hydra_obs.observe obs "analysis.carry_in.set_size"
    (min (sys.n_cores - 1) (List.length hp));
  let iters = ref 0 in
  let r =
    fixpoint ~start:warm ~iters ~n_cores:sys.n_cores ~wcet ~limit
      (omega_top_delta obs sys ~hp ~job_wcet:wcet)
  in
  record_fixpoint obs iters r;
  r

(* Branch-and-bound Eq. 8.

   Soundness (proofs in doc/PERFORMANCE.md):

   - Drop criterion: a hp task h whose carry-in workload never exceeds
     its non-carry-in workload (delta_h(x) <= 0 for all x, which holds
     exactly when C_h = 1 or R_h <= C_h) cannot increase any subset's
     fixed point, so it is removed from carry-in candidacy; the literal
     enumeration visits subsets containing h but each is dominated by
     the same subset without h, leaving the maximum unchanged.

   - Upper-bound certificate: omega_top_delta >= omega_fixed_sets for
     every admissible subset at every x (nc + max(0, ci - nc) =
     max(nc, ci) per task, summed over the M-1 largest). Hence if the
     top-delta fixed point converges to r_top, every subset converges
     and the Eq. 8 maximum is <= r_top; if top-delta diverges we fall
     back to the literal enumeration to reproduce its verdict exactly.

   - Prefixed-point skip: for a subset S and the current best b >= wcet,
     if omega_S(b)/M + wcet <= b then the iterates from wcet never
     exceed b, so lfp(S) <= b and S cannot raise the maximum — skipped
     without running the fixed point (counted in
     analysis.prune.subsets_skipped).

   - Warm floor: [warm] must be a caller-guaranteed lower bound on the
     true Eq. 8 value (Period_selection passes the response under the
     previous, larger, feasible candidate period — monotonicity proof
     in doc/PERFORMANCE.md). It only seeds the running maximum, never
     an individual subset's iteration. *)
let response_time_exhaustive_fast ?(warm = 0) ?obs sys ~hp ~wcet ~limit =
  match response_time_top_delta ~warm ?obs sys ~hp ~wcet ~limit with
  | None ->
      (* Top-delta diverged: no convergence certificate for the
         subsets, so reproduce the literal Eq. 8 verdict. *)
      response_time_exhaustive ?obs sys ~hp ~wcet ~limit
  | Some r_top ->
      let hp_arr = Array.of_list hp in
      let n = Array.length hp_arr in
      let max_size = sys.n_cores - 1 in
      if max_size <= 0 || n = 0 then begin
        (* Only the empty subset: its omega is omega_top_delta (no
           deltas), so its fixed point is r_top itself. *)
        Hydra_obs.add obs "analysis.carry_in.subsets" 1;
        Hydra_obs.observe obs "analysis.carry_in.set_size" 0;
        Some r_top
      end
      else if n > 60 then
        (* Bitmask width guard; unreachable at paper scale. *)
        response_time_exhaustive ?obs sys ~hp ~wcet ~limit
      else begin
        (* Carry-in candidates: tasks whose delta can be positive. *)
        let kept_mask = ref 0 in
        for i = 0 to n - 1 do
          let h = hp_arr.(i) in
          let c = h.hp_task.Task.sec_wcet in
          if c = 1 || h.hp_resp <= c then
            Hydra_obs.incr obs "analysis.prune.carry_in_dropped"
          else kept_mask := !kept_mask lor (1 lsl i)
        done;
        let kept_mask = !kept_mask in
        let omega_mask mask x =
          let acc = ref (rt_interference_cached obs sys ~job_wcet:wcet x) in
          for i = 0 to n - 1 do
            let h = hp_arr.(i) in
            acc :=
              !acc
              + (if mask land (1 lsl i) <> 0 then
                   sec_interference_ci ~job_wcet:wcet h x
                 else sec_interference_nc ~job_wcet:wcet h x)
          done;
          !acc
        in
        let best = ref (max wcet warm) in
        let enumerated = ref 0 in
        let skipped = ref 0 in
        let popcount m =
          let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
          go m 0
        in
        let consider mask =
          let size = popcount mask in
          if size <= max_size then begin
            incr enumerated;
            let b = !best in
            (* r_top bounds every subset's fixed point; if it cannot
               beat the floor, neither can this subset. *)
            if r_top <= b || (omega_mask mask b / sys.n_cores) + wcet <= b
            then incr skipped
            else begin
              Hydra_obs.observe obs "analysis.carry_in.set_size" size;
              let iters = ref 0 in
              let r =
                fixpoint ~iters ~n_cores:sys.n_cores ~wcet ~limit
                  (omega_mask mask)
              in
              record_fixpoint obs iters r;
              match r with
              | Some r -> if r > !best then best := r
              | None ->
                  (* Unreachable: omega_mask mask <= omega_top_delta
                     pointwise (|mask| <= M-1), so from wcet <= r_top
                     every iterate stays <= r_top <= limit and the
                     subset's fixed point converges at or below
                     r_top. *)
                  assert false
            end
          end
        in
        consider 0;
        let s = ref kept_mask in
        while !s <> 0 do
          consider !s;
          s := (!s - 1) land kept_mask
        done;
        Hydra_obs.add obs "analysis.carry_in.subsets" !enumerated;
        Hydra_obs.add obs "analysis.prune.subsets_skipped" !skipped;
        Some !best
      end

let response_time ?(policy = Top_delta) ?(warm = 0) ?obs sys ~hp ~wcet
    ~limit =
  match policy with
  | Top_delta -> response_time_top_delta ~warm ?obs sys ~hp ~wcet ~limit
  | Exhaustive -> response_time_exhaustive_fast ~warm ?obs sys ~hp ~wcet ~limit
