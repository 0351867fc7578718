(* Tests for the analysis fast path (doc/PERFORMANCE.md): the
   carry-in subset combinatorics, the Top_delta-dominates-every-subset
   soundness property, and the equivalence gate proving the production
   path bit-identical to the reference implementation in test/oracle
   for both carry-in policies — single queries, whole Algorithm 1
   runs, and full sweeps across jobs values. *)

module Task = Rtsched.Task
module Analysis = Hydra.Analysis
module Period_selection = Hydra.Period_selection
module Naive_analysis = Hydra_oracle.Naive_analysis
module Naive_selection = Hydra_oracle.Naive_selection

let check_int = Test_util.check_int
let check_bool = Test_util.check_bool

(* ------------------------------------------------------------------ *)
(* carry_in_subsets: count law, sizes, order preservation. *)

let binomial n k =
  if k < 0 || k > n then 0
  else begin
    let acc = ref 1 in
    for i = 0 to k - 1 do
      acc := !acc * (n - i) / (i + 1)
    done;
    !acc
  end

let expected_count n max_size =
  if max_size <= 0 then 1
  else begin
    let acc = ref 0 in
    for k = 0 to min n max_size do
      acc := !acc + binomial n k
    done;
    !acc
  end

let test_subset_counts () =
  for n = 0 to 12 do
    let items = List.init n Fun.id in
    List.iter
      (fun max_size ->
        let subsets = Analysis.carry_in_subsets items ~max_size in
        check_int
          (Printf.sprintf "count n=%d max_size=%d" n max_size)
          (expected_count n max_size)
          (List.length subsets))
      [ 0; 1; 2; 3; n ]
  done

let test_subset_sizes_and_order () =
  let items = List.init 9 Fun.id in
  let subsets = Analysis.carry_in_subsets items ~max_size:3 in
  check_bool "no oversized subset" true
    (List.for_all (fun s -> List.length s <= 3) subsets);
  (* Items were given in increasing order, so order preservation means
     every subset is strictly increasing. *)
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  check_bool "order-preserving" true (List.for_all increasing subsets);
  check_int "no duplicates" (List.length subsets)
    (List.length (List.sort_uniq compare subsets))

(* ------------------------------------------------------------------ *)
(* Shared scaffolding for the property tests: build the system and a
   consistent hp chain (periods at the bounds, responses computed
   top-down by the analysis itself, exactly as Algorithm 1 would). *)

let hp_chain ?policy sys (sorted : Task.sec_task array) upto =
  let rec go i acc =
    if i >= upto then Some (List.rev acc)
    else
      let s = sorted.(i) in
      match
        Analysis.response_time ?policy sys ~hp:(List.rev acc)
          ~wcet:s.Task.sec_wcet ~limit:s.Task.sec_period_max
      with
      | None -> None
      | Some r ->
          go (i + 1)
            ({ Analysis.hp_task = s; hp_period = s.Task.sec_period_max;
               hp_resp = r }
             :: acc)
  in
  go 0 []

let with_taskset ts f =
  let sys =
    Analysis.make_system ts ~assignment:(Test_util.round_robin_assignment ts)
  in
  let sorted = Task.sort_sec_by_priority ts.Task.sec in
  f sys sorted

(* Top_delta upper-bounds the response under every admissible fixed
   carry-in subset (the certificate the branch-and-bound path leans
   on, doc/PERFORMANCE.md). *)
let prop_top_delta_bounds_every_subset =
  let arb = Test_util.arb_taskset ~n_cores:3 ~n_rt:4 ~n_sec:5 in
  Test_util.qtest ~count:120 "Top_delta >= every fixed subset" arb (fun ts ->
      with_taskset ts @@ fun sys sorted ->
      let target = sorted.(Array.length sorted - 1) in
      match hp_chain sys sorted (Array.length sorted - 1) with
      | None -> true (* chain already unschedulable: nothing to compare *)
      | Some hp -> (
          let wcet = target.Task.sec_wcet in
          let limit = target.Task.sec_period_max in
          match Analysis.response_time ~policy:Analysis.Top_delta sys ~hp
                  ~wcet ~limit
          with
          | None -> true (* no certificate; nothing claimed *)
          | Some r_top ->
              Analysis.carry_in_subsets
                (List.map (fun h -> h.Analysis.hp_task.Task.sec_id) hp)
                ~max_size:(sys.Analysis.n_cores - 1)
              |> List.for_all (fun carry_in_ids ->
                     match
                       Analysis.response_time_fixed_subset sys ~hp
                         ~carry_in_ids ~wcet ~limit
                     with
                     | Some r -> r <= r_top
                     | None -> false (* must converge under the cert *))))

(* Equivalence gate, single WCRT queries: production = oracle for
   both policies, both the value and the None verdict. *)
let prop_response_time_fast_equals_naive =
  let arb = Test_util.arb_taskset ~n_cores:3 ~n_rt:4 ~n_sec:5 in
  Test_util.qtest ~count:120 "response_time fast = naive" arb (fun ts ->
      with_taskset ts @@ fun sys sorted ->
      let n = Array.length sorted in
      List.for_all
        (fun policy ->
          match hp_chain ~policy sys sorted (n - 1) with
          | None -> true
          | Some hp ->
              let target = sorted.(n - 1) in
              let wcet = target.Task.sec_wcet in
              let limit = target.Task.sec_period_max in
              let naive =
                Naive_analysis.response_time ~policy sys ~hp ~wcet ~limit
              in
              let fast = Analysis.response_time ~policy sys ~hp ~wcet ~limit in
              naive = fast)
        [ Analysis.Top_delta; Analysis.Exhaustive ])

let same_select_result a b =
  match (a, b) with
  | Period_selection.Unschedulable, Period_selection.Unschedulable -> true
  | Period_selection.Schedulable xs, Period_selection.Schedulable ys ->
      List.length xs = List.length ys
      && List.for_all2
           (fun (x : Period_selection.assignment)
                (y : Period_selection.assignment) ->
             x.sec.Task.sec_id = y.sec.Task.sec_id
             && x.period = y.period && x.resp = y.resp)
           xs ys
  | _ -> false

(* Equivalence gate, whole Algorithm 1 runs (this also exercises the
   warm-start floor and the commit/scratch bookkeeping). A fresh
   system per run so the workload cache of one run cannot leak into
   the timing of another (results would match anyway — the cache is
   observationally pure). *)
let prop_select_fast_equals_naive =
  let arb = Test_util.arb_taskset ~n_cores:3 ~n_rt:4 ~n_sec:5 in
  Test_util.qtest ~count:120 "select fast = naive" arb (fun ts ->
      List.for_all
        (fun policy ->
          let naive =
            with_taskset ts @@ fun sys _ ->
            Naive_selection.select ~policy sys ts.Task.sec
          in
          let fast =
            with_taskset ts @@ fun sys _ ->
            Period_selection.select ~policy sys ts.Task.sec
          in
          same_select_result naive fast)
        [ Analysis.Top_delta; Analysis.Exhaustive ])

(* ------------------------------------------------------------------ *)
(* Sweep-level equivalence across jobs values: the production path
   composes with the parallel pool (one system per taskset per worker,
   so the per-system cache is never shared across domains), the
   records are bit-identical for every jobs value, and every HYDRA-C
   record carries the oracle's periods. *)

let test_sweep_fast_naive_across_jobs () =
  let policy = Analysis.Exhaustive and n_cores = 2 and per_group = 2 in
  let seed = 7 in
  let run ~jobs =
    Experiments.Sweep.run ~policy ~jobs ~n_cores ~per_group ~seed ()
  in
  let records = (run ~jobs:1).Experiments.Sweep.records in
  check_bool "records jobs=1 = jobs=4" true
    ((run ~jobs:4).Experiments.Sweep.records = records);
  (* The sweep's tasksets, regenerated the way Sweep.run draws them:
     one pre-split stream per slot, discarded draws leave no record. *)
  let config = Taskgen.Generator.default_config ~n_cores in
  let n = config.Taskgen.Generator.util_groups * per_group in
  let streams = Taskgen.Rng.split_n (Taskgen.Rng.create seed) n in
  let gens =
    List.filter_map
      (fun i ->
        Taskgen.Generator.generate config streams.(i) ~group:(i / per_group))
      (List.init n Fun.id)
  in
  check_int "one record per taskset" (List.length gens) (List.length records);
  List.iter2
    (fun (g : Taskgen.Generator.generated) record ->
      let ts = g.taskset in
      let sys = Analysis.make_system ts ~assignment:g.rt_assignment in
      let expected =
        match Naive_selection.select ~policy sys ts.Task.sec with
        | Period_selection.Unschedulable -> None
        | Period_selection.Schedulable a ->
            Some
              (Period_selection.period_vector a
                 ~n_sec:(Array.length ts.Task.sec))
      in
      check_bool "HYDRA-C periods = oracle" true
        (Experiments.Sweep.schedulable_periods record
           ~scheme:Hydra.Scheme.Hydra_c
        = expected))
    gens records

(* The fast path's own counters exist and are consistent: hits only
   ever follow misses on the same system, and the exhaustive pruning
   counters appear once a multi-core exhaustive query ran. *)
let test_fast_path_counters () =
  let ts = Security.Rover.taskset () in
  let obs = Hydra_obs.create () in
  let sys =
    Analysis.make_system ts ~assignment:(Security.Rover.rt_assignment ())
  in
  (match
     Period_selection.select ~policy:Analysis.Exhaustive ~obs sys ts.Task.sec
   with
  | Period_selection.Unschedulable -> Alcotest.fail "rover must schedule"
  | Period_selection.Schedulable _ -> ());
  let counters = Hydra_obs.counters obs in
  let total name =
    match
      List.find_opt (fun c -> c.Hydra_obs.cv_name = name) counters
    with
    | Some c -> c.Hydra_obs.cv_total
    | None -> 0
  in
  check_bool "cache misses recorded" true (total "analysis.cache.miss" > 0);
  check_bool "cache hits recorded" true (total "analysis.cache.hit" > 0);
  check_bool "subsets enumerated" true
    (total "analysis.carry_in.subsets" > 0)

(* ------------------------------------------------------------------ *)
(* Cache hygiene: the stats accessor, the bounded-size eviction knob
   (flush-on-full must keep results bit-identical while capping the
   entry count), and the per-core refresh entry point. *)

let test_cache_stats_and_bound () =
  let ts = Security.Rover.taskset () in
  let asg = Security.Rover.rt_assignment () in
  let run capacity =
    let sys = Analysis.make_system ts ~assignment:asg in
    Analysis.set_cache_capacity sys capacity;
    let result = Period_selection.select sys ts.Task.sec in
    (result, Analysis.cache_stats sys)
  in
  let unbounded, su = run 0 in
  check_bool "unbounded populates" true (su.Analysis.cs_entries > 0);
  check_bool "misses counted" true (su.Analysis.cs_misses > 0);
  check_bool "hits counted" true (su.Analysis.cs_hits > 0);
  check_int "no evictions unbounded" 0 su.Analysis.cs_evictions;
  check_int "entries = misses when unbounded" su.Analysis.cs_misses
    su.Analysis.cs_entries;
  let cap = max 1 (su.Analysis.cs_entries / 4) in
  let bounded, sb = run cap in
  check_bool "bound respected" true (sb.Analysis.cs_entries <= cap);
  check_bool "evictions happened" true (sb.Analysis.cs_evictions > 0);
  check_bool "bounded = unbounded results" true
    (same_select_result unbounded bounded);
  (* lowering the capacity below the live entry count flushes now *)
  let sys = Analysis.make_system ts ~assignment:asg in
  ignore (Period_selection.select sys ts.Task.sec);
  let n0 = (Analysis.cache_stats sys).Analysis.cs_entries in
  check_bool "populated" true (n0 > 1);
  Analysis.set_cache_capacity sys 1;
  check_int "immediate flush" 0 (Analysis.cache_stats sys).Analysis.cs_entries

let test_refresh_rt_cores () =
  let ts = Security.Rover.taskset () in
  let asg = Security.Rover.rt_assignment () in
  let sys = Analysis.make_system ts ~assignment:asg in
  ignore (Period_selection.select sys ts.Task.sec);
  let stats0 = Analysis.cache_stats sys in
  check_bool "populated" true (stats0.Analysis.cs_entries > 0);
  (* drop every RT task from core 0, keep the others: refreshed
     responses must equal a cold system built on the same partition *)
  let new_cores = Array.copy sys.Analysis.rt_cores in
  new_cores.(0) <- [];
  let changed = Array.make sys.Analysis.n_cores false in
  changed.(0) <- true;
  let refreshed = Analysis.refresh_rt_cores sys new_cores ~changed in
  let stats1 = Analysis.cache_stats refreshed in
  check_int "same entries" stats0.Analysis.cs_entries stats1.Analysis.cs_entries;
  check_bool "columns rewritten" true (stats1.Analysis.cs_refreshes > 0);
  let cold =
    { Analysis.n_cores = sys.Analysis.n_cores; rt_cores = new_cores;
      cache = Analysis.fresh_cache () }
  in
  check_bool "refreshed = cold rebuild" true
    (same_select_result
       (Period_selection.select refreshed ts.Task.sec)
       (Period_selection.select cold ts.Task.sec));
  (* core-count changes are structural *)
  Alcotest.check_raises "core count change refused"
    (Invalid_argument
       "Analysis.refresh_rt_cores: core count changed — build a fresh system \
        with make_system instead") (fun () ->
      ignore
        (Analysis.refresh_rt_cores sys
           (Array.make (sys.Analysis.n_cores + 1) [])
           ~changed:(Array.make (sys.Analysis.n_cores + 1) false)))

(* warm0 floors and bounds_out: a select warm-started from a previous
   run's all-bounds responses is bit-identical to a cold select, and
   bounds_out re-runs reproduce themselves (fixed point of the
   export). *)
let prop_warm0_identical =
  let arb = Test_util.arb_taskset ~n_cores:3 ~n_rt:4 ~n_sec:5 in
  Test_util.qtest ~count:80 "select warm0 = cold select" arb (fun ts ->
      let n_sec = Array.length ts.Task.sec in
      let run ?warm0 ?bounds_out () =
        with_taskset ts @@ fun sys _ ->
        Period_selection.select ?warm0 ?bounds_out sys ts.Task.sec
      in
      let bounds = Array.make n_sec 0 in
      let cold = run ~bounds_out:bounds () in
      match cold with
      | Period_selection.Unschedulable -> true (* bounds not exported *)
      | Period_selection.Schedulable _ ->
          let bounds2 = Array.make n_sec 0 in
          let warm = run ~warm0:bounds ~bounds_out:bounds2 () in
          same_select_result cold warm
          && bounds = bounds2
          (* the oracle exports the same all-bounds vector *)
          &&
          let bounds3 = Array.make n_sec 0 in
          (with_taskset ts @@ fun sys _ ->
           ignore (Naive_selection.select ~bounds_out:bounds3 sys ts.Task.sec));
          bounds = bounds3)

(* Search hints steer the probe order of the Algorithm 2 threshold
   search, never its result: any hint vector — the previous selection,
   the exact answer, or adversarial garbage — yields a bit-identical
   selection. *)
let prop_hints_identical =
  let arb =
    QCheck.pair
      (Test_util.arb_taskset ~n_cores:3 ~n_rt:4 ~n_sec:5)
      QCheck.(small_int)
  in
  Test_util.qtest ~count:80 "select hints = plain select" arb
    (fun (ts, salt) ->
      let n_sec = Array.length ts.Task.sec in
      let run ?hints () =
        with_taskset ts @@ fun sys _ ->
        Period_selection.select ?hints sys ts.Task.sec
      in
      let plain = run () in
      (* adversarial hints: deterministic pseudo-random values around
         the period bounds, including 0 (= no hint) and overshoots *)
      let garbage =
        Array.init n_sec (fun i ->
            let pmax = ts.Task.sec.(i).Task.sec_period_max in
            (salt + (31 * i)) mod (pmax + 7))
      in
      let exact =
        match plain with
        | Period_selection.Unschedulable -> None
        | Period_selection.Schedulable asg ->
            Some (Period_selection.period_vector asg ~n_sec)
      in
      same_select_result plain (run ~hints:garbage ())
      && (match exact with
         | None -> true
         | Some h -> same_select_result plain (run ~hints:h ()))
      (* short/empty hint vectors are ignored gracefully *)
      && same_select_result plain (run ~hints:[||] ()))

let () =
  Alcotest.run "analysis_fast_path"
    [ ( "carry_in_subsets",
        [ Alcotest.test_case "count law n<=12" `Quick test_subset_counts;
          Alcotest.test_case "sizes and order" `Quick
            test_subset_sizes_and_order ] );
      ( "soundness",
        [ prop_top_delta_bounds_every_subset ] );
      ( "equivalence",
        [ prop_response_time_fast_equals_naive;
          prop_select_fast_equals_naive;
          Alcotest.test_case "sweep across jobs" `Quick
            test_sweep_fast_naive_across_jobs ] );
      ( "counters",
        [ Alcotest.test_case "fast-path counters" `Quick
            test_fast_path_counters ] );
      ( "cache_hygiene",
        [ Alcotest.test_case "stats + bounded eviction" `Quick
            test_cache_stats_and_bound;
          Alcotest.test_case "refresh_rt_cores" `Quick test_refresh_rt_cores;
          prop_warm0_identical; prop_hints_identical ] ) ]
