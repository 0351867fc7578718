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
        let subsets = Naive_analysis.carry_in_subsets items ~max_size in
        check_int
          (Printf.sprintf "count n=%d max_size=%d" n max_size)
          (expected_count n max_size)
          (List.length subsets))
      [ 0; 1; 2; 3; n ]
  done

let test_subset_sizes_and_order () =
  let items = List.init 9 Fun.id in
  let subsets = Naive_analysis.carry_in_subsets items ~max_size:3 in
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
        Naive_analysis.fast_response_time ?policy sys ~hp:(List.rev acc)
          ~wcet:s.Task.sec_wcet ~limit:s.Task.sec_period_max
      with
      | None -> None
      | Some r ->
          go (i + 1)
            ({ Naive_analysis.hp_task = s; hp_period = s.Task.sec_period_max;
               hp_resp = r }
             :: acc)
  in
  go 0 []

(* [sys] with an empty workload cache of [slots] slots (default 256). *)
let with_slots ?slots sys =
  { sys with Analysis.cache = Analysis.fresh_cache ?slots sys.Analysis.n_cores }

let with_taskset ?slots ts f =
  let sys =
    with_slots ?slots
      (Analysis.make_system ts
         ~assignment:(Test_util.round_robin_assignment ts))
  in
  let sorted = Task.sort_sec_by_priority ts.Task.sec in
  f sys sorted

(* Workload-cache sizes the differentials run at: one slot, where
   every new window overwrites the last, and the default size. Between
   them every lookup path is exercised: a hit, a miss into an empty
   slot and a miss over a colliding window. *)
let slot_counts = [ Some 1; None ]

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
          match
            Naive_analysis.fast_response_time ~policy:Analysis.Top_delta sys
              ~hp ~wcet ~limit
          with
          | None -> true (* no certificate; nothing claimed *)
          | Some r_top ->
              Naive_analysis.carry_in_subsets
                (List.map (fun h -> h.Naive_analysis.hp_task.Task.sec_id) hp)
                ~max_size:(sys.Analysis.n_cores - 1)
              |> List.for_all (fun carry_in_ids ->
                     match
                       Naive_analysis.response_time_fixed_subset sys ~hp
                         ~carry_in_ids ~wcet ~limit
                     with
                     | Some r -> r <= r_top
                     | None -> false (* must converge under the cert *))))

(* Equivalence gate, single WCRT queries: production = oracle for
   both policies and both cache sizes, both the value and the None
   verdict. *)
let prop_response_time_fast_equals_naive =
  let arb = Test_util.arb_taskset ~n_cores:3 ~n_rt:4 ~n_sec:5 in
  Test_util.qtest ~count:120 "response_time fast = naive" arb (fun ts ->
      List.for_all
        (fun slots ->
          with_taskset ?slots ts @@ fun sys sorted ->
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
                  let fast =
                    Naive_analysis.fast_response_time ~policy sys ~hp ~wcet
                      ~limit
                  in
                  naive = fast)
            [ Analysis.Top_delta; Analysis.Exhaustive ])
        slot_counts)

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
   warm-start floor and the commit/scratch bookkeeping), for both
   policies and both cache sizes. A fresh system per run so the
   workload cache of one run cannot leak into the timing of another
   (results would match anyway — the cache is observationally
   pure). *)
let prop_select_fast_equals_naive =
  let arb = Test_util.arb_taskset ~n_cores:3 ~n_rt:4 ~n_sec:5 in
  Test_util.qtest ~count:120 "select fast = naive" arb (fun ts ->
      List.for_all
        (fun policy ->
          let naive =
            with_taskset ts @@ fun sys _ ->
            Naive_selection.select ~policy sys ts.Task.sec
          in
          List.for_all
            (fun slots ->
              let fast =
                with_taskset ?slots ts @@ fun sys _ ->
                Period_selection.select ~policy sys ts.Task.sec
              in
              same_select_result naive fast)
            slot_counts)
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

(* Exhaustive on long hp chains at M = 2: every one of the n tasks is a
   carry-in candidate (C = 2 < R = 5), so the admissible sets are the
   empty set and the n singletons. The enumerator must visit at most
   those n + 1, with and without the top-delta certificate (a limit
   one below the top-delta bound takes it away), and agree with the
   literal Eq. 8 maximum. A walk over every subset of the candidates
   would visit 2^n. *)
let test_exhaustive_long_chains () =
  let sys =
    { Analysis.n_cores = 2; rt_cores = [| []; [] |];
      cache = Analysis.fresh_cache 2 }
  in
  List.iter
    (fun n ->
      let hp =
        List.init n (fun i ->
            { Naive_analysis.hp_task =
                Task.make_sec ~id:i ~prio:i ~wcet:2 ~period_max:(4 * n) ();
              hp_period = 4 * n; hp_resp = 5 })
      in
      let wcet = 3 in
      let r_top =
        match
          Naive_analysis.fast_response_time sys ~hp ~wcet ~limit:max_int
        with
        | Some r -> r
        | None -> Alcotest.fail "top-delta must converge"
      in
      List.iter
        (fun limit ->
          let before = (Analysis.cache_stats sys).Analysis.cs_subsets in
          let at what = Printf.sprintf "%s n=%d limit=%d" what n limit in
          Alcotest.(check (option int))
            (at "= literal Eq. 8")
            (Naive_analysis.response_time ~policy:Analysis.Exhaustive sys ~hp
               ~wcet ~limit)
            (Naive_analysis.fast_response_time ~policy:Analysis.Exhaustive
               sys ~hp ~wcet ~limit);
          let subsets =
            (Analysis.cache_stats sys).Analysis.cs_subsets - before
          in
          check_bool (at "at most n + 1 sets") true (subsets <= n + 1))
        [ r_top; r_top - 1 ])
    [ 40; 70 ]

(* The creep the jump removes: with both cores' RT tasks at 95 % and
   no hp task, the plain Eq. 7 loop climbs one tick per iteration from
   C_s = 1000 to the response, 19,001 iterations in all. The same
   response as the oracle from at most 200. *)
let test_saturated_rt_creep () =
  let rt m = Task.make_rt ~id:m ~prio:0 ~wcet:95 ~period:100 () in
  let sys =
    { Analysis.n_cores = 2; rt_cores = [| [ rt 0 ]; [ rt 1 ] |];
      cache = Analysis.fresh_cache 2 }
  in
  let wcet = 1000 and limit = 30000 in
  Alcotest.(check (option int)) "= naive" (Some 20000)
    (Naive_analysis.response_time sys ~hp:[] ~wcet ~limit);
  let before = (Analysis.cache_stats sys).Analysis.cs_iterations in
  Alcotest.(check (option int)) "response" (Some 20000)
    (Naive_analysis.fast_response_time sys ~hp:[] ~wcet ~limit);
  let iters = (Analysis.cache_stats sys).Analysis.cs_iterations - before in
  check_bool (Printf.sprintf "%d iterations <= 200" iters) true (iters <= 200)

(* A call under either policy reads its hp view in place and runs on
   the system's scratch (the kernel's, plus Eq. 8's set, candidate and
   increment buffers, which the first call at a larger hp count grows),
   so what it allocates does not grow with the hp count. Each call is
   warm-started at its least fixed point, whose window the memo already
   holds, so it takes one iteration. *)
let test_call_allocation_flat () =
  let rt = Task.make_rt ~id:0 ~prio:0 ~wcet:3 ~period:20 () in
  let sys =
    { Analysis.n_cores = 4; rt_cores = [| [ rt ]; []; []; [] |];
      cache = Analysis.fresh_cache 4 }
  in
  let wcet = 10 and limit = 100_000 in
  let per_call policy n =
    let hp = Rtsched.Guan.make n in
    for i = 0 to n - 1 do
      hp.wcet.(i) <- 2 + (i mod 3);
      hp.period.(i) <- 400 + (10 * i);
      hp.resp.(i) <- 7
    done;
    let lfp =
      match Analysis.response_time ~policy sys ~hp ~n ~wcet ~limit with
      | Some r -> r
      | None -> Alcotest.fail "must converge"
    in
    let iterations () = (Analysis.cache_stats sys).Analysis.cs_iterations in
    let before = iterations () in
    ignore
      (Sys.opaque_identity
         (Analysis.response_time ~policy ~warm:lfp sys ~hp ~n ~wcet ~limit));
    check_int (Printf.sprintf "one iteration at n=%d" n) 1
      (iterations () - before);
    let calls = 100 in
    let before = Gc.minor_words () in
    for _ = 1 to calls do
      ignore
        (Sys.opaque_identity
           (Analysis.response_time ~policy ~warm:lfp sys ~hp ~n ~wcet ~limit))
    done;
    (Gc.minor_words () -. before) /. float_of_int calls
  in
  List.iter
    (fun (name, policy) ->
      let one = per_call policy 1 in
      List.iter
        (fun n ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s: minor words per call, %d hp tasks = 1" name
               n)
            one (per_call policy n))
        [ 8; 32 ])
    [ ("Top_delta", Analysis.Top_delta); ("Exhaustive", Analysis.Exhaustive) ]

(* ------------------------------------------------------------------ *)
(* Cache hygiene: the stats accessor, the slot count (every size
   computes bit-identical results; a colliding window overwrites its
   slot, so the table never grows), and the per-core refresh entry
   point. *)

let rover_system ?slots () =
  with_slots ?slots
    (Analysis.make_system (Security.Rover.taskset ())
       ~assignment:(Security.Rover.rt_assignment ()))

(* Windows never exceed the largest period bound, so at the first power
   of two above it every window of a rover selection has a slot of its
   own. *)
let rover_collision_free_slots =
  let largest =
    Array.fold_left
      (fun acc s -> max acc s.Task.sec_period_max)
      0 (Security.Rover.taskset ()).Task.sec
  in
  let rec pow2 s = if s > largest then s else pow2 (2 * s) in
  pow2 1

let test_cache_stats_and_bound () =
  let ts = Security.Rover.taskset () in
  let run ?slots () =
    let sys = rover_system ?slots () in
    let result = Period_selection.select sys ts.Task.sec in
    (result, Analysis.cache_stats sys)
  in
  let default, sd = run () in
  check_int "default slot count" 256 sd.Analysis.cs_capacity;
  check_bool "populates" true (sd.Analysis.cs_entries > 0);
  check_bool "misses counted" true (sd.Analysis.cs_misses > 0);
  check_bool "hits counted" true (sd.Analysis.cs_hits > 0);
  List.iter
    (fun slots ->
      let result, s = run ~slots () in
      let at what = Printf.sprintf "%s at %d slots" what slots in
      check_int (at "slot count") slots s.Analysis.cs_capacity;
      check_bool (at "entries <= slots") true
        (s.Analysis.cs_entries <= slots);
      check_bool (at "result = default size") true
        (same_select_result default result);
      if slots = 1 then
        check_bool (at "evictions") true (s.Analysis.cs_evictions > 0))
    [ 1; 2; 16; 256 ];
  let result, s = run ~slots:rover_collision_free_slots () in
  check_int "no evictions above the largest window" 0
    s.Analysis.cs_evictions;
  check_int "entries = misses without collisions" s.Analysis.cs_misses
    s.Analysis.cs_entries;
  check_bool "result = default size" true (same_select_result default result);
  Alcotest.check_raises "slot count must be a power of two"
    (Invalid_argument "Analysis.fresh_cache: slots must be a power of two")
    (fun () -> ignore (Analysis.fresh_cache ~slots:3 4))

let test_refresh_rt_cores () =
  let ts = Security.Rover.taskset () in
  (* at the default size; at one slot, where the refresh passes over an
     entry that colliding windows kept overwriting; and collision-free,
     where every window of the first selection is still cached *)
  List.iter
    (fun slots ->
      let sys = rover_system ?slots () in
      ignore (Period_selection.select sys ts.Task.sec);
      let stats0 = Analysis.cache_stats sys in
      check_bool "populated" true (stats0.Analysis.cs_entries > 0);
      (* drop every RT task from core 0, keep the others: refreshed
         responses must equal a cold system built on the same
         partition *)
      let new_cores = Array.copy sys.Analysis.rt_cores in
      new_cores.(0) <- [];
      let changed = Array.make sys.Analysis.n_cores false in
      changed.(0) <- true;
      let refreshed = Analysis.refresh_rt_cores sys new_cores ~changed in
      let stats1 = Analysis.cache_stats refreshed in
      check_int "same entries" stats0.Analysis.cs_entries
        stats1.Analysis.cs_entries;
      check_bool "columns rewritten" true (stats1.Analysis.cs_refreshes > 0);
      let cold =
        { Analysis.n_cores = sys.Analysis.n_cores; rt_cores = new_cores;
          cache = Analysis.fresh_cache sys.Analysis.n_cores }
      in
      check_bool "refreshed = cold rebuild" true
        (same_select_result
           (Period_selection.select refreshed ts.Task.sec)
           (Period_selection.select cold ts.Task.sec)))
    [ None; Some 1; Some rover_collision_free_slots ];
  (* core-count changes are structural *)
  let sys = rover_system () in
  Alcotest.check_raises "core count change refused"
    (Invalid_argument
       "Analysis.refresh_rt_cores: core count changed — build a fresh system \
        with make_system instead") (fun () ->
      ignore
        (Analysis.refresh_rt_cores sys
           (Array.make (sys.Analysis.n_cores + 1) [])
           ~changed:(Array.make (sys.Analysis.n_cores + 1) false)))

(* The per-selection report. A traced [select] on a fresh system adds
   to its registry exactly what the system's memo tallied; a second
   [select] on the same system and registry (the daemon's case) adds
   only its own work, so the registry still equals the memo; and
   without a registry the results and the tallies are the same. On the
   rover and on generated M = 2 tasksets, one per utilization group,
   under both policies: the high groups' searches probe infeasible
   periods (diverged fixed points), and [Exhaustive] reaches the Eq. 8
   tallies. *)
let memo_work (s : Analysis.cache_stats) =
  [ ("analysis.fixpoint.iterations", s.cs_iterations);
    ("analysis.fixpoint.converged", s.cs_converged);
    ("analysis.fixpoint.diverged", s.cs_diverged);
    ("analysis.carry_in.subsets", s.cs_subsets);
    ("analysis.prune.subsets_skipped", s.cs_skipped);
    ("analysis.prune.carry_in_dropped", s.cs_dropped);
    ("analysis.cache.hit", s.cs_hits);
    ("analysis.cache.miss", s.cs_misses);
    ("analysis.cache.evicted", s.cs_evictions) ]

let test_select_reports_work_once () =
  let check_work = Alcotest.(check (list (pair string int))) in
  let config = Taskgen.Generator.default_config ~n_cores:2 in
  let groups = config.Taskgen.Generator.util_groups in
  let streams = Taskgen.Rng.split_n (Taskgen.Rng.create 11) groups in
  let cases =
    (Security.Rover.taskset (), Security.Rover.rt_assignment ())
    :: List.filter_map
         (fun group ->
           Option.map
             (fun (g : Taskgen.Generator.generated) ->
               (g.taskset, g.rt_assignment))
             (Taskgen.Generator.generate config streams.(group) ~group))
         (List.init groups Fun.id)
  in
  List.iter
    (fun (name, policy) ->
      let diverged = ref 0 and subsets = ref 0 and skipped = ref 0 in
      List.iteri
        (fun i (ts, assignment) ->
          let at what = Printf.sprintf "%s, taskset %d: %s" name i what in
          let sys = Analysis.make_system ts ~assignment in
          let obs = Hydra_obs.create () in
          let check_registry what stats =
            let expected = memo_work stats in
            check_work (at what) expected
              (List.map
                 (fun (counter, _) ->
                   (counter, Hydra_obs.counter_total obs counter))
                 expected)
          in
          let first = Period_selection.select ~policy ~obs sys ts.Task.sec in
          let s1 = Analysis.cache_stats sys in
          check_registry "registry = memo after one select" s1;
          let second = Period_selection.select ~policy ~obs sys ts.Task.sec in
          let s2 = Analysis.cache_stats sys in
          check_bool (at "the second select did work") true
            (s2.Analysis.cs_iterations > s1.Analysis.cs_iterations);
          check_registry "registry = memo after two" s2;
          let plain = Analysis.make_system ts ~assignment in
          check_bool (at "results without a registry") true
            (same_select_result first
               (Period_selection.select ~policy plain ts.Task.sec)
            && same_select_result second
                 (Period_selection.select ~policy plain ts.Task.sec));
          check_work (at "tallies without a registry") (memo_work s2)
            (memo_work (Analysis.cache_stats plain));
          diverged := !diverged + s2.Analysis.cs_diverged;
          subsets := !subsets + s2.Analysis.cs_subsets;
          skipped := !skipped + s2.Analysis.cs_skipped)
        cases;
      check_bool (name ^ ": some fixed point diverged") true (!diverged > 0);
      if policy = Analysis.Exhaustive then
        check_bool (name ^ ": sets visited and skipped") true
          (!subsets > 0 && !skipped > 0))
    [ ("Top_delta", Analysis.Top_delta); ("Exhaustive", Analysis.Exhaustive) ]

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
            test_fast_path_counters;
          Alcotest.test_case "Exhaustive on long hp chains" `Quick
            test_exhaustive_long_chains;
          Alcotest.test_case "saturated RT creep" `Quick
            test_saturated_rt_creep;
          Alcotest.test_case "call allocation flat in hp count" `Quick
            test_call_allocation_flat;
          Alcotest.test_case "select reports its work once" `Quick
            test_select_reports_work_once ] );
      ( "cache_hygiene",
        [ Alcotest.test_case "stats + bounded eviction" `Quick
            test_cache_stats_and_bound;
          Alcotest.test_case "refresh_rt_cores" `Quick test_refresh_rt_cores;
          prop_hints_identical ] ) ]
