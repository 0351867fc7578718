module Task = Rtsched.Task
module Workload = Rtsched.Workload
module Guan = Rtsched.Guan

type time = Task.time

(* Per-system memo of the raw per-core RT workloads at each window x
   (doc/PERFORMANCE.md §1), direct-mapped in two flat arrays: window x
   lives in slot [x land (slots - 1)], [keys.(slot)] holds it (-1 =
   empty; windows are >= C_s >= 1, so -1 never matches) and
   [wl.(slot * M + m)] holds core m's raw workload. A lookup or a
   store allocates nothing; a window landing on a slot held by another
   overwrites it. An entry is a function of the RT partition and the
   window only, so which windows survive never changes a result. The
   job_wcet clamp of Eq. 3 is applied per query, on top of the cached
   workloads. The arrays are plain (not thread-safe) state: a system
   value must not be shared across domains — the sweep builds one per
   taskset per worker, see analysis.mli. The Guan kernel's scratch, its
   run buffer and top-(M-1) increments, lives here too, under the same
   one-domain rule, and so do the Eq. 8 enumerator's chosen set (M-1
   slots) and its candidate and increment buffers (grown when a larger
   hp set arrives), so a response-time call allocates no buffer of its
   own. The memo is also the one account of the analysis's work
   (lookups, refreshes, the Eq. 8 sets visited and skipped and
   candidates dropped, and in [runs]' tally the iterations and
   verdicts). *)
type cache = {
  keys : int array;  (* slots, a power of two *)
  wl : int array;  (* slots * n_cores *)
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_evictions : int;
  mutable c_refreshes : int;
  mutable c_subsets : int;
  mutable c_skipped : int;
  mutable c_dropped : int;
  runs : Guan.runs;
  top : time array;  (* n_cores - 1 *)
  chosen : int array;  (* n_cores - 1 *)
  mutable cand : int array;  (* >= the largest hp count seen *)
  mutable delta_b : time array;  (* as long as [cand] *)
}

let fresh_cache ?(slots = 256) n_cores =
  if slots <= 0 || slots land (slots - 1) <> 0 then
    invalid_arg "Analysis.fresh_cache: slots must be a power of two";
  { keys = Array.make slots (-1); wl = Array.make (slots * n_cores) 0;
    c_hits = 0; c_misses = 0; c_evictions = 0; c_refreshes = 0;
    c_subsets = 0; c_skipped = 0; c_dropped = 0; runs = Guan.runs ~n_cores;
    top = Array.make (n_cores - 1) 0; chosen = Array.make (n_cores - 1) 0;
    cand = [||]; delta_b = [||] }

type cache_stats = {
  cs_entries : int;
  cs_capacity : int;
  cs_hits : int;
  cs_misses : int;
  cs_evictions : int;
  cs_refreshes : int;
  cs_iterations : int;
  cs_converged : int;
  cs_diverged : int;
  cs_subsets : int;
  cs_skipped : int;
  cs_dropped : int;
}

type system = {
  n_cores : int;
  rt_cores : Task.rt_task list array;
  cache : cache;
}

type carry_in_policy = Top_delta | Exhaustive

let make_system (ts : Task.taskset) ~assignment =
  { n_cores = ts.n_cores;
    rt_cores = Rtsched.Partition.cores_of_assignment ts assignment;
    cache = fresh_cache ts.n_cores }

(* A slot is never emptied, and a miss either fills an empty slot or
   evicts, so the occupied slots are the misses that did not evict. *)
let cache_stats sys =
  let c = sys.cache in
  let t = Guan.tally c.runs in
  { cs_entries = c.c_misses - c.c_evictions;
    cs_capacity = Array.length c.keys;
    cs_hits = c.c_hits;
    cs_misses = c.c_misses;
    cs_evictions = c.c_evictions;
    cs_refreshes = c.c_refreshes;
    cs_iterations = t.iterations;
    cs_converged = t.converged;
    cs_diverged = t.diverged;
    cs_subsets = c.c_subsets;
    cs_skipped = c.c_skipped;
    cs_dropped = c.c_dropped }

(* Per-core cache invalidation (doc/SERVER.md): the new partition
   differs from the cached one only on the cores flagged in [changed],
   so every occupied slot keeps the unchanged cores' workloads and
   recomputes just the changed columns. Bit-identity is by definition:
   after the refresh every cached workload equals what
   [Workload.rt_core_workload new_cores.(m) x] would compute from
   scratch. *)
let refresh_rt_cores sys new_cores ~changed =
  if Array.length new_cores <> sys.n_cores
     || Array.length changed <> sys.n_cores
  then
    invalid_arg
      "Analysis.refresh_rt_cores: core count changed — build a fresh system \
       with make_system instead";
  let c = sys.cache in
  Array.iteri
    (fun slot x ->
      if x >= 0 then
        for m = 0 to sys.n_cores - 1 do
          if changed.(m) then begin
            c.wl.((slot * sys.n_cores) + m) <-
              Workload.rt_core_workload new_cores.(m) x;
            c.c_refreshes <- c.c_refreshes + 1
          end
        done)
    c.keys;
  { sys with rt_cores = new_cores }

(* The RT term of Eq. 6 for a window of length [x]: the sum over cores
   of the clamped raw workload, memoized per window, each core's term
   recording its slack in the kernel's runs for the fixed point's jump.
   Bit-identical to the oracle's uncached term because interference =
   clamp(rt_core_workload core x) either way. The lookups are tallied
   in the cache's own counters. *)
let rt_term sys ~job_wcet x =
  let c = sys.cache in
  let n = sys.n_cores in
  let slot = x land (Array.length c.keys - 1) in
  let base = slot * n in
  let wl = c.wl in
  let k = c.keys.(slot) in
  if k = x then c.c_hits <- c.c_hits + 1
  else begin
    c.c_misses <- c.c_misses + 1;
    if k >= 0 then c.c_evictions <- c.c_evictions + 1;
    c.keys.(slot) <- x;
    for m = 0 to n - 1 do
      wl.(base + m) <- Workload.rt_core_workload sys.rt_cores.(m) x
    done
  end;
  let acc = ref 0 in
  for m = 0 to n - 1 do
    acc := !acc + Guan.clamped c.runs ~job_wcet x wl.(base + m)
  done;
  !acc

(* Eq. 7 under the Guan bound: the kernel's Omega (every hp task's
   non-carry-in interference plus the M-1 largest carry-in increments)
   plus the cached RT term, iterated from [max wcet warm]
   (doc/PERFORMANCE.md §3) with the kernel's jumps (§2). *)
let response_time_top_delta ~warm sys hp ~n ~wcet ~limit =
  let { runs; top; _ } = sys.cache in
  Guan.fixpoint ~start:warm ~runs ~n_cores:sys.n_cores ~wcet ~limit
    (fun x ->
      rt_term sys ~job_wcet:wcet x
      + Guan.bound hp ~n ~top ~runs ~job_wcet:wcet x)

(* Eq. 8: the maximum, over the admissible carry-in sets S, of the
   Eq. 7 fixed point under
   Omega_S(x) = RT(x) + sum_i nc_i(x) + sum_{i in S} delta_i(x).

   Soundness (proofs in doc/PERFORMANCE.md §2):

   - Drop criterion: a hp task whose increment is <= 0 at every window
     (exactly when C = 1 or R <= C) never raises a set's fixed point,
     nor turns a converging set into a diverging one, so only the other
     tasks are candidates. The admissible sets are the candidate
     subsets of size <= M-1, generated depth-first, each extending its
     parent by a later candidate.

   - Top-delta certificate: the Guan Omega dominates every admissible
     Omega_S pointwise. If its fixed point r_top converges, so does
     every set's, at or below r_top. Without it (r_top = None) the
     running maximum starts at C_s, and the first set whose iterate
     passes [limit] decides the [None] verdict.

   - Prefixed-point skip: for the running maximum b (C_s <= b <=
     limit), if Omega_S(b)/M + C_s <= b then lfp(S) <= b, so S can
     neither raise the maximum nor diverge; it is skipped without its
     fixed point (the memo's skipped tally), as it is once b
     reaches r_top. RT(b) + sum_i nc_i(b) and each candidate's
     delta_i(b) are computed once per value of b, so a test costs
     O(|S|).

   - Warm start: [warm] is a caller-guaranteed lower bound on the Eq. 8
     value. It only seeds the running maximum under the certificate,
     never an individual set's iteration.

   Each set's fixed point jumps on the runs of its own terms
   (Guan.set_bound), not on the top set's. *)
let response_time_eq8 ~warm sys (hp : Guan.hp) ~n ~wcet ~limit =
  let r_top = response_time_top_delta ~warm sys hp ~n ~wcet ~limit in
  let cache = sys.cache in
  if Array.length cache.cand < n then begin
    cache.cand <- Array.make n 0;
    cache.delta_b <- Array.make n 0
  end;
  let { runs; chosen; cand; delta_b; _ } = cache in
  let n_cand = ref 0 in
  for i = 0 to n - 1 do
    let c = hp.wcet.(i) in
    if c = 1 || hp.resp.(i) <= c then cache.c_dropped <- cache.c_dropped + 1
    else begin
      cand.(!n_cand) <- i;
      incr n_cand
    end
  done;
  let n_cand = !n_cand in
  let k = Int.min (sys.n_cores - 1) n_cand in
  if wcet > limit then None
  else if k = 0 then begin
    (* Only the empty set: with every increment dropped (or no carry-in
       at M = 1), its Omega is the Guan Omega, so its fixed point and
       verdict are r_top's. *)
    cache.c_subsets <- cache.c_subsets + 1;
    r_top
  end
  else begin
    let certified = Option.is_some r_top in
    let cap = Option.value r_top ~default:max_int in
    (* the set under consideration: task indices chosen.(0 .. size-1) *)
    let omega size x =
      rt_term sys ~job_wcet:wcet x
      + Guan.set_bound hp ~n ~set:chosen ~size ~runs ~job_wcet:wcet x
    in
    (* Omega_S(b) = [base] + the members' [delta_b], recomputed only
       when the running maximum b moves off [b_seen] *)
    let b_seen = ref (-1) in
    let base = ref 0 in
    let omega_at size b =
      if !b_seen <> b then begin
        b_seen := b;
        base :=
          rt_term sys ~job_wcet:wcet b
          + Guan.increments hp ~n ~runs ~job_wcet:wcet ~delta:delta_b b
      end;
      let acc = ref !base in
      for j = 0 to size - 1 do
        acc := !acc + delta_b.(chosen.(j))
      done;
      !acc
    in
    let best = ref (if certified then Int.max wcet warm else wcet) in
    (* false: the set's iterate passed [limit] *)
    let visit size =
      cache.c_subsets <- cache.c_subsets + 1;
      let b = !best in
      if cap <= b || (omega_at size b / sys.n_cores) + wcet <= b then begin
        cache.c_skipped <- cache.c_skipped + 1;
        true
      end
      else begin
        match
          Guan.fixpoint ~runs ~n_cores:sys.n_cores ~wcet ~limit (omega size)
        with
        | Some r ->
            if r > !best then best := r;
            true
        | None ->
            (* Unreachable under the certificate: Omega_S <= the Guan
               Omega pointwise, so from C_s <= r_top every iterate stays
               <= r_top <= limit. *)
            if certified then assert false;
            false
      end
    in
    let rec sets size from =
      visit size && (size = k || extend size from)
    and extend size i =
      i >= n_cand
      || begin
           chosen.(size) <- cand.(i);
           sets (size + 1) (i + 1) && extend size (i + 1)
         end
    in
    if sets 0 0 then Some !best else None
  end

let response_time ?(policy = Top_delta) ?(warm = 0) sys ~hp ~n ~wcet ~limit =
  match policy with
  | Top_delta -> response_time_top_delta ~warm sys hp ~n ~wcet ~limit
  | Exhaustive -> response_time_eq8 ~warm sys hp ~n ~wcet ~limit

(* The same totals as counting each query, at most nine registry
   lookups per report. A counter with nothing to add is left alone, so
   it appears in a snapshot exactly when some query reached it. *)
let record_work obs ~since sys =
  match obs with
  | None -> ()
  | Some _ ->
      let now = cache_stats sys in
      let add name before after =
        if after > before then Hydra_obs.add obs name (after - before)
      in
      add "analysis.fixpoint.iterations" since.cs_iterations now.cs_iterations;
      add "analysis.fixpoint.converged" since.cs_converged now.cs_converged;
      add "analysis.fixpoint.diverged" since.cs_diverged now.cs_diverged;
      add "analysis.carry_in.subsets" since.cs_subsets now.cs_subsets;
      add "analysis.prune.subsets_skipped" since.cs_skipped now.cs_skipped;
      add "analysis.prune.carry_in_dropped" since.cs_dropped now.cs_dropped;
      add "analysis.cache.hit" since.cs_hits now.cs_hits;
      add "analysis.cache.miss" since.cs_misses now.cs_misses;
      add "analysis.cache.evicted" since.cs_evictions now.cs_evictions

(* One RTA's tally, reported once per call of its caller. Each counter
   is added exactly when recording every fixed point would have
   created it: [iterations] with the first verdict, even at 0, and
   each verdict with its first occurrence. *)
let record_rta obs prefix (t : Guan.tally) =
  match obs with
  | Some _ when t.converged + t.diverged > 0 ->
      let add what n = if n > 0 then Hydra_obs.add obs (prefix ^ what) n in
      Hydra_obs.add obs (prefix ^ ".iterations") t.iterations;
      add ".converged" t.converged;
      add ".diverged" t.diverged
  | _ -> ()
