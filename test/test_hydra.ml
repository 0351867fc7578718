(* Tests for the paper's core: the semi-partitioned WCRT analysis
   (Eqs. 6-8), period selection (Algorithms 1-2), the HYDRA /
   HYDRA-TMax / GLOBAL-TMax baselines, metrics and the scheme
   front-end. *)

module Task = Rtsched.Task
module Analysis = Hydra.Analysis
module Period_selection = Hydra.Period_selection
module Baseline_hydra = Hydra.Baseline_hydra
module Baseline_tmax = Hydra.Baseline_tmax
module Metrics = Hydra.Metrics
module Scheme = Hydra.Scheme
module Naive_analysis = Hydra_oracle.Naive_analysis

let check_int = Test_util.check_int
let check_bool = Test_util.check_bool

let sec ?(prio = 0) ?(id = 0) wcet period_max =
  Task.make_sec ~id ~prio ~wcet ~period_max ()

let empty_system n_cores =
  { Analysis.n_cores; rt_cores = Array.make n_cores [];
    cache = Analysis.fresh_cache n_cores }

let rover_system () =
  let ts = Security.Rover.taskset () in
  ( ts,
    Analysis.make_system ts ~assignment:(Security.Rover.rt_assignment ()) )

(* ------------------------------------------------------------------ *)
(* Analysis *)

let test_analysis_alone () =
  (* No RT tasks, no higher-priority security tasks: R = C. *)
  Alcotest.(check (option int)) "alone" (Some 9)
    (Naive_analysis.fast_response_time (empty_system 2) ~hp:[] ~wcet:9
       ~limit:100)

let test_analysis_more_cores_than_tasks () =
  (* One hp task but two cores: the job under analysis never waits. *)
  let hp =
    [ { Naive_analysis.hp_task = sec 5 50; hp_period = 50; hp_resp = 5 } ]
  in
  Alcotest.(check (option int)) "never waits" (Some 9)
    (Naive_analysis.fast_response_time (empty_system 2) ~hp ~wcet:9 ~limit:100)

let test_analysis_single_core_interference () =
  (* M = 1, hp security task (2,10,R=2): classic uniprocessor-like
     interference with the synchronous workload bound. *)
  let hp =
    [ { Naive_analysis.hp_task = sec 2 10; hp_period = 10; hp_resp = 2 } ]
  in
  match
    Naive_analysis.fast_response_time (empty_system 1) ~hp ~wcet:5 ~limit:100
  with
  | None -> Alcotest.fail "expected schedulable"
  | Some r -> check_bool "bounded sensibly" true (r >= 7 && r <= 10)

let test_analysis_unschedulable () =
  let hp =
    [ { Naive_analysis.hp_task = sec 10 10; hp_period = 10; hp_resp = 10 } ]
  in
  Alcotest.(check (option int)) "saturated core" None
    (Naive_analysis.fast_response_time (empty_system 1) ~hp ~wcet:5 ~limit:200)

let test_analysis_limit_is_respected () =
  Alcotest.(check (option int)) "wcet beyond limit" None
    (Naive_analysis.fast_response_time (empty_system 2) ~hp:[] ~wcet:50
       ~limit:49)

let test_analysis_rt_interference_term () =
  let rt0 = Task.make_rt ~id:0 ~prio:0 ~wcet:4 ~period:10 () in
  let sys =
    { Analysis.n_cores = 2; rt_cores = [| [ rt0 ]; [] |];
      cache = Analysis.fresh_cache 2 }
  in
  (* For a window of 10 and job wcet 2, RT interference is
     min(W_nc(10)=4, 10-2+1=9) = 4. *)
  check_int "rt interference" 4
    (Naive_analysis.rt_interference sys ~job_wcet:2 10)

let test_carry_in_subsets () =
  let subsets = Naive_analysis.carry_in_subsets [ 1; 2; 3 ] ~max_size:2 in
  check_int "count of size <= 2 subsets" 7 (List.length subsets);
  check_bool "contains empty" true (List.mem [] subsets);
  check_bool "no oversized subset" true
    (List.for_all (fun s -> List.length s <= 2) subsets)

let test_rover_response_times () =
  (* Regression pins for the rover taskset (split RT assignment):
     tripwire R = 7582, kmod R = 2783 (hand-checked fixed points). *)
  let ts, sys = rover_system () in
  match Period_selection.select sys ts.Task.sec with
  | Period_selection.Unschedulable -> Alcotest.fail "rover must schedule"
  | Period_selection.Schedulable assignments -> (
      match assignments with
      | [ tw; km ] ->
          Alcotest.(check string) "priority order" "tripwire"
            tw.Period_selection.sec.Task.sec_name;
          check_int "tripwire WCRT" 7582 tw.Period_selection.resp;
          check_int "tripwire period" 7582 tw.Period_selection.period;
          check_int "kmod WCRT" 2783 km.Period_selection.resp;
          check_int "kmod period" 2783 km.Period_selection.period
      | _ -> Alcotest.fail "expected two security tasks")

let prop_top_delta_upper_bounds_exhaustive =
  (* The polynomial carry-in bound must dominate the literal Eq. 8
     maximum (it grants the worst M-1 carry-ins at every iterate). *)
  let arb = Test_util.arb_taskset ~n_cores:3 ~n_rt:4 ~n_sec:4 in
  Test_util.qtest ~count:80 "Top_delta >= Exhaustive" arb (fun ts ->
      let sys =
        Analysis.make_system ts
          ~assignment:(Test_util.round_robin_assignment ts)
      in
      let sorted = Task.sort_sec_by_priority ts.Task.sec in
      let target = sorted.(Array.length sorted - 1) in
      let hp =
        Array.to_list sorted
        |> List.filter (fun s -> s.Task.sec_prio < target.Task.sec_prio)
        |> List.map (fun s ->
               { Naive_analysis.hp_task = s; hp_period = s.Task.sec_period_max;
                 hp_resp = s.Task.sec_wcet })
      in
      let r_top =
        Naive_analysis.fast_response_time ~policy:Analysis.Top_delta sys ~hp
          ~wcet:target.Task.sec_wcet ~limit:100_000
      in
      let r_exh =
        Naive_analysis.fast_response_time ~policy:Analysis.Exhaustive sys ~hp
          ~wcet:target.Task.sec_wcet ~limit:100_000
      in
      match (r_top, r_exh) with
      | Some a, Some b -> a >= b
      | None, _ -> true (* top-delta may reject where exhaustive passes *)
      | Some _, None -> false)

let prop_analysis_bounds_simulation =
  (* The semi-partitioned WCRT must bound the response times observed
     by the discrete-event simulator under the same policy. *)
  let arb = Test_util.arb_taskset ~n_cores:2 ~n_rt:3 ~n_sec:3 in
  Test_util.qtest ~count:60 "analysis bounds simulation" arb (fun ts ->
      let assignment = Test_util.round_robin_assignment ts in
      QCheck.assume
        (Rtsched.Rta_uniproc.partitioned_rt_schedulable ts ~assignment);
      let sys = Analysis.make_system ts ~assignment in
      match Period_selection.select sys ts.Task.sec with
      | Period_selection.Unschedulable -> QCheck.assume_fail ()
      | Period_selection.Schedulable assignments ->
          let n_sec = Array.length ts.Task.sec in
          let periods = Period_selection.period_vector assignments ~n_sec in
          let resps = Period_selection.resp_vector assignments ~n_sec in
          let built =
            Sim.Scenario.of_taskset ts ~rt_assignment:assignment
              ~policy:Sim.Policy.Semi_partitioned ~sec_periods:periods ()
          in
          let stats =
            Sim.Engine.run ~n_cores:2 ~horizon:5000 built.Sim.Scenario.tasks
          in
          Array.for_all
            (fun (s : Task.sec_task) ->
              Sim.Metrics.max_response stats
                ~sim_id:built.Sim.Scenario.sec_sim_ids.(s.Task.sec_id)
              <= resps.(s.Task.sec_id))
            ts.Task.sec)

(* ------------------------------------------------------------------ *)
(* Period selection *)

let test_selection_invariants_on_rover () =
  let ts, sys = rover_system () in
  match Period_selection.select sys ts.Task.sec with
  | Period_selection.Unschedulable -> Alcotest.fail "rover must schedule"
  | Period_selection.Schedulable assignments ->
      List.iter
        (fun (a : Period_selection.assignment) ->
          check_bool "R <= T" true (a.Period_selection.resp <= a.period);
          check_bool "T <= Tmax" true
            (a.period <= a.Period_selection.sec.Task.sec_period_max))
        assignments

let test_selection_unschedulable_reported () =
  (* A security task that cannot fit even at its bound. *)
  let rt = [ Task.make_rt ~id:0 ~prio:0 ~wcet:9 ~period:10 () ] in
  let ts =
    Task.make_taskset ~n_cores:1 ~rt ~sec:[ sec ~id:0 100 200 ]
  in
  let sys = Analysis.make_system ts ~assignment:[| 0 |] in
  check_bool "reported unschedulable" true
    (Period_selection.select sys ts.Task.sec = Period_selection.Unschedulable)

let test_selection_minimizes_high_priority_first () =
  (* Two identical security tasks on an otherwise empty dual-core: the
     high-priority one is driven down to its WCRT (= C), the lower one
     to its own fixpoint given that choice. *)
  let ts =
    Task.make_taskset ~n_cores:2 ~rt:[]
      ~sec:[ sec ~id:0 ~prio:0 10 100; sec ~id:1 ~prio:1 10 100 ]
  in
  let sys = Analysis.make_system ts ~assignment:[||] in
  match Period_selection.select sys ts.Task.sec with
  | Period_selection.Unschedulable -> Alcotest.fail "must schedule"
  | Period_selection.Schedulable [ hi; lo ] ->
      check_int "high priority gets its WCRT" 10 hi.Period_selection.period;
      check_bool "low priority feasible" true
        (lo.Period_selection.resp <= lo.Period_selection.period)
  | Period_selection.Schedulable _ -> Alcotest.fail "expected two tasks"

let prop_selection_periods_feasible =
  (* Re-checking every selected period vector from scratch must confirm
     schedulability: R_s <= T_s for every task. *)
  let arb = Test_util.arb_taskset ~n_cores:2 ~n_rt:3 ~n_sec:4 in
  Test_util.qtest ~count:80 "selected periods are feasible" arb (fun ts ->
      let assignment = Test_util.round_robin_assignment ts in
      let sys = Analysis.make_system ts ~assignment in
      match Period_selection.select sys ts.Task.sec with
      | Period_selection.Unschedulable -> true
      | Period_selection.Schedulable assignments ->
          (* recompute responses with the final periods, top-down *)
          let rec verify hp = function
            | [] -> true
            | (a : Period_selection.assignment) :: rest -> (
                match
                  Naive_analysis.fast_response_time sys ~hp
                    ~wcet:a.Period_selection.sec.Task.sec_wcet
                    ~limit:a.Period_selection.sec.Task.sec_period_max
                with
                | None -> false
                | Some r ->
                    r <= a.Period_selection.period
                    && verify
                         (hp
                         @ [ { Naive_analysis.hp_task = a.Period_selection.sec;
                               hp_period = a.Period_selection.period;
                               hp_resp = r } ])
                         rest)
          in
          verify [] assignments)

let prop_selection_minimality =
  (* The selected period of the highest-priority task is minimal: one
     tick less must break some lower-priority task (or dip below its
     own WCRT). *)
  let arb = Test_util.arb_taskset ~n_cores:2 ~n_rt:2 ~n_sec:3 in
  Test_util.qtest ~count:60 "highest-priority period is minimal" arb
    (fun ts ->
      let assignment = Test_util.round_robin_assignment ts in
      let sys = Analysis.make_system ts ~assignment in
      match Period_selection.select sys ts.Task.sec with
      | Period_selection.Unschedulable -> true
      | Period_selection.Schedulable (first :: rest) ->
          let open Period_selection in
          if first.period <= first.resp then true
          else begin
            (* probe T-1: some lower-priority task must fail *)
            let hp_probe =
              { Naive_analysis.hp_task = first.sec;
                hp_period = first.period - 1; hp_resp = first.resp }
            in
            let rec lp_all_ok hp = function
              | [] -> true
              | (a : assignment) :: tl -> (
                  match
                    Naive_analysis.fast_response_time sys ~hp
                      ~wcet:a.sec.Task.sec_wcet
                      ~limit:a.sec.Task.sec_period_max
                  with
                  | None -> false
                  | Some r ->
                      lp_all_ok
                        (hp
                        @ [ { Naive_analysis.hp_task = a.sec;
                              hp_period = a.sec.Task.sec_period_max;
                              hp_resp = r } ])
                        tl)
            in
            not (lp_all_ok [ hp_probe ] rest)
          end
      | Period_selection.Schedulable [] -> true)

let prop_selection_never_below_tmax_feasibility =
  (* Algorithm 1 accepts exactly when the bound-period configuration is
     feasible: minimization never changes the verdict. *)
  let arb = Test_util.arb_taskset ~n_cores:2 ~n_rt:3 ~n_sec:4 in
  Test_util.qtest ~count:80 "verdict = feasibility at the bounds" arb
    (fun ts ->
      let sys =
        Analysis.make_system ts
          ~assignment:(Test_util.round_robin_assignment ts)
      in
      let sorted = Task.sort_sec_by_priority ts.Task.sec in
      (* feasibility at the bounds, computed directly *)
      let rec feasible hp = function
        | [] -> true
        | (s : Task.sec_task) :: rest -> (
            match
              Naive_analysis.fast_response_time sys ~hp ~wcet:s.Task.sec_wcet
                ~limit:s.Task.sec_period_max
            with
            | None -> false
            | Some r ->
                feasible
                  (hp
                  @ [ { Naive_analysis.hp_task = s;
                        hp_period = s.Task.sec_period_max; hp_resp = r } ])
                  rest)
      in
      let direct = feasible [] (Array.to_list sorted) in
      let algo =
        Period_selection.select sys ts.Task.sec
        <> Period_selection.Unschedulable
      in
      direct = algo)

let prop_selection_dominates_tmax_distance =
  (* Selected periods are never longer than the bounds. *)
  let arb = Test_util.arb_taskset ~n_cores:2 ~n_rt:3 ~n_sec:4 in
  Test_util.qtest ~count:80 "T* <= Tmax componentwise" arb (fun ts ->
      let sys =
        Analysis.make_system ts
          ~assignment:(Test_util.round_robin_assignment ts)
      in
      match Period_selection.select sys ts.Task.sec with
      | Period_selection.Unschedulable -> true
      | Period_selection.Schedulable assignments ->
          List.for_all
            (fun (a : Period_selection.assignment) ->
              a.Period_selection.period <= a.sec.Task.sec_period_max
              && a.Period_selection.period >= a.sec.Task.sec_wcet)
            assignments)

(* ------------------------------------------------------------------ *)
(* HYDRA baseline *)

let test_hydra_rover_allocation () =
  let ts, sys = rover_system () in
  match Baseline_hydra.allocate ~minimize:true sys ts.Task.sec with
  | Baseline_hydra.Unschedulable -> Alcotest.fail "rover must schedule"
  | Baseline_hydra.Schedulable [ tw; km ] ->
      (* Tripwire cannot fit with navigation (core 0); kmod prefers the
         navigation core where its response is 463. *)
      check_int "tripwire on camera core" 1 tw.Baseline_hydra.core;
      check_int "tripwire period" 7582 tw.Baseline_hydra.period;
      check_int "kmod on navigation core" 0 km.Baseline_hydra.core;
      check_int "kmod period" 463 km.Baseline_hydra.period
  | Baseline_hydra.Schedulable _ -> Alcotest.fail "expected two allocations"

let test_hydra_tmax_periods_at_bounds () =
  let ts, sys = rover_system () in
  match Baseline_hydra.allocate ~minimize:false sys ts.Task.sec with
  | Baseline_hydra.Unschedulable -> Alcotest.fail "rover must schedule"
  | Baseline_hydra.Schedulable allocs ->
      List.iter
        (fun (a : Baseline_hydra.alloc) ->
          check_int "period pinned at bound"
            a.Baseline_hydra.sec.Task.sec_period_max a.Baseline_hydra.period)
        allocs

let test_hydra_unschedulable () =
  let rt = [ Task.make_rt ~id:0 ~prio:0 ~wcet:9 ~period:10 () ] in
  let ts = Task.make_taskset ~n_cores:1 ~rt ~sec:[ sec ~id:0 50 100 ] in
  let sys = Analysis.make_system ts ~assignment:[| 0 |] in
  check_bool "no core fits" true
    (Baseline_hydra.allocate ~minimize:true sys ts.Task.sec
    = Baseline_hydra.Unschedulable)

let prop_hydra_allocation_feasible =
  let arb = Test_util.arb_taskset ~n_cores:2 ~n_rt:4 ~n_sec:4 in
  Test_util.qtest ~count:80 "HYDRA allocations satisfy per-core RTA" arb
    (fun ts ->
      let assignment = Test_util.round_robin_assignment ts in
      let sys = Analysis.make_system ts ~assignment in
      match Baseline_hydra.allocate ~minimize:true sys ts.Task.sec with
      | Baseline_hydra.Unschedulable -> true
      | Baseline_hydra.Schedulable allocs ->
          (* every task's recomputed response on its core is <= period *)
          let rec check placed = function
            | [] -> true
            | (a : Baseline_hydra.alloc) :: rest -> (
                match
                  Baseline_hydra.core_response_time
                    ~tally:(Rtsched.Guan.make_tally ()) sys
                    ~core:a.Baseline_hydra.core ~placed a.Baseline_hydra.sec
                with
                | None -> false
                | Some r ->
                    r <= a.Baseline_hydra.period && check (placed @ [ a ]) rest)
          in
          check [] allocs)

let test_hydra_coordinated_rover () =
  let ts, sys = rover_system () in
  match Baseline_hydra.allocate_coordinated sys ts.Task.sec with
  | Baseline_hydra.Unschedulable -> Alcotest.fail "rover must schedule"
  | Baseline_hydra.Schedulable allocs ->
      List.iter
        (fun (a : Baseline_hydra.alloc) ->
          check_bool "R <= T" true (a.Baseline_hydra.resp <= a.Baseline_hydra.period);
          check_bool "T <= Tmax" true
            (a.Baseline_hydra.period
            <= a.Baseline_hydra.sec.Task.sec_period_max))
        allocs

let prop_coordinated_acceptance_matches_tmax =
  (* Coordinated minimization never loses a taskset HYDRA-TMax
     accepts: the allocation is identical and minimization preserves
     per-core feasibility by construction. *)
  let arb = Test_util.arb_taskset ~n_cores:2 ~n_rt:3 ~n_sec:4 in
  Test_util.qtest ~count:60 "coordinated acceptance = HYDRA-TMax" arb
    (fun ts ->
      let sys =
        Analysis.make_system ts
          ~assignment:(Test_util.round_robin_assignment ts)
      in
      let tmax_ok =
        Baseline_hydra.allocate ~minimize:false sys ts.Task.sec
        <> Baseline_hydra.Unschedulable
      in
      let coord_ok =
        Baseline_hydra.allocate_coordinated sys ts.Task.sec
        <> Baseline_hydra.Unschedulable
      in
      tmax_ok = coord_ok)

let prop_coordinated_periods_feasible =
  (* Recompute every coordinated allocation from scratch: each task's
     per-core response under the final period vector fits its own
     period. *)
  let arb = Test_util.arb_taskset ~n_cores:2 ~n_rt:3 ~n_sec:4 in
  Test_util.qtest ~count:60 "coordinated periods feasible" arb (fun ts ->
      let sys =
        Analysis.make_system ts
          ~assignment:(Test_util.round_robin_assignment ts)
      in
      match Baseline_hydra.allocate_coordinated sys ts.Task.sec with
      | Baseline_hydra.Unschedulable -> true
      | Baseline_hydra.Schedulable allocs ->
          let rec check placed = function
            | [] -> true
            | (a : Baseline_hydra.alloc) :: rest -> (
                match
                  Baseline_hydra.core_response_time
                    ~tally:(Rtsched.Guan.make_tally ()) sys
                    ~core:a.Baseline_hydra.core ~placed a.Baseline_hydra.sec
                with
                | None -> false
                | Some r ->
                    r <= a.Baseline_hydra.period && check (placed @ [ a ]) rest)
          in
          check [] allocs)

(* Each baseline call reports its RTA's tally once, as it returns: a
   second identical call on the same registry exactly doubles every
   [rta.uniproc.*] (HYDRA) or [rta.global.*] (GLOBAL-TMax) counter, so
   no tally carries over between calls. *)
let prop_rta_reported_once =
  let arb = Test_util.arb_taskset ~n_cores:2 ~n_rt:3 ~n_sec:4 in
  Test_util.qtest ~count:40 "second call doubles the rta counters" arb
    (fun ts ->
      let rt_assignment = Test_util.round_robin_assignment ts in
      let sys = Analysis.make_system ts ~assignment:rt_assignment in
      let doubles prefix run =
        let obs = Hydra_obs.create () in
        let read () =
          List.filter_map
            (fun (c : Hydra_obs.counter_view) ->
              if String.starts_with ~prefix c.cv_name then
                Some (c.cv_name, c.cv_total)
              else None)
            (Hydra_obs.counters obs)
        in
        run obs;
        let once = read () in
        run obs;
        once <> [] && read () = List.map (fun (n, v) -> (n, 2 * v)) once
      in
      let hydra minimize obs =
        ignore (Baseline_hydra.allocate ~obs ~minimize sys ts.Task.sec)
      in
      doubles "rta.uniproc." (hydra true)
      && doubles "rta.uniproc." (hydra false)
      && doubles "rta.uniproc." (fun obs ->
             ignore (Baseline_hydra.allocate_coordinated ~obs sys ts.Task.sec))
      && doubles "rta.global." (fun obs ->
             ignore (Scheme.evaluate ~obs Scheme.Global_tmax ts ~rt_assignment)))

(* ------------------------------------------------------------------ *)
(* GLOBAL-TMax *)

let test_global_tmax_trivial () =
  let ts =
    Task.make_taskset ~n_cores:2 ~rt:[] ~sec:[ sec ~id:0 5 100 ]
  in
  check_bool "one small task" true (Baseline_tmax.global_tmax_schedulable ts)

let test_global_tmax_overload () =
  let rt =
    List.init 3 (fun i -> Task.make_rt ~id:i ~prio:i ~wcet:10 ~period:10 ())
  in
  let ts = Task.make_taskset ~n_cores:2 ~rt ~sec:[] in
  check_bool "three saturating tasks on two cores" false
    (Baseline_tmax.global_tmax_schedulable ts)

let test_global_response_names () =
  let ts, _ = rover_system () in
  let names = List.map fst (Baseline_tmax.global_response_times ts) in
  Alcotest.(check (list string)) "priority order"
    [ "navigation"; "camera"; "tripwire"; "kmod-checker" ]
    names

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_distance_zero_when_at_bounds () =
  Alcotest.(check (float 1e-9)) "no adaptation" 0.0
    (Metrics.normalized_distance_to_bound ~periods:[| 100; 200 |]
       ~bounds:[| 100; 200 |])

let test_distance_bounded_by_one () =
  let d =
    Metrics.normalized_distance_to_bound ~periods:[| 1; 1 |]
      ~bounds:[| 100; 200 |]
  in
  check_bool "in (0,1)" true (d > 0.9 && d < 1.0)

let test_distance_known_value () =
  (* One component halved: sqrt(((1/2)^2 + 0)/2) = 0.3536. *)
  Alcotest.(check (float 1e-4)) "half on one axis" 0.35355
    (Metrics.normalized_distance_to_bound ~periods:[| 50; 200 |]
       ~bounds:[| 100; 200 |])

let test_mean_difference_sign () =
  let bounds = [| 100; 100 |] in
  check_bool "ours shorter -> positive" true
    (Metrics.mean_normalized_difference ~ours:[| 50; 50 |]
       ~other:[| 100; 100 |] ~bounds
    > 0.0);
  check_bool "ours longer -> negative" true
    (Metrics.mean_normalized_difference ~ours:[| 100; 100 |]
       ~other:[| 50; 50 |] ~bounds
    < 0.0);
  Alcotest.(check (float 1e-9)) "equal -> zero" 0.0
    (Metrics.mean_normalized_difference ~ours:[| 70; 70 |] ~other:[| 70; 70 |]
       ~bounds)

let test_metrics_dim_mismatch () =
  let raised =
    try
      ignore
        (Metrics.normalized_distance_to_bound ~periods:[| 1 |]
           ~bounds:[| 1; 2 |]);
      false
    with Invalid_argument _ -> true
  in
  check_bool "dimension mismatch rejected" true raised

let test_acceptance_ratio () =
  Alcotest.(check (float 1e-9)) "3/4" 0.75
    (Metrics.acceptance_ratio ~accepted:3 ~total:4);
  Alcotest.(check (float 1e-9)) "empty" 0.0
    (Metrics.acceptance_ratio ~accepted:0 ~total:0)

let test_mean_and_stddev () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Metrics.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "stddev" 0.0 (Metrics.stddev [ 5.0; 5.0 ]);
  check_bool "mean of empty is nan" true (Float.is_nan (Metrics.mean []))

(* ------------------------------------------------------------------ *)
(* Detection-latency model *)

module Dm = Hydra_oracle.Detection_model

let test_model_single_region () =
  (* n=1: region 0 starts at 0 and ends at [pass]. Attack at phase 0
     is seen by the current job; any later phase waits for the next. *)
  check_int "phase 0" 10 (Dm.latency_at ~period:100 ~pass:10 ~n_regions:1
                            ~phase:0 ~region:0);
  check_int "phase 1 waits a period" (100 + 10 - 1)
    (Dm.latency_at ~period:100 ~pass:10 ~n_regions:1 ~phase:1 ~region:0);
  check_int "last phase" 11
    (Dm.latency_at ~period:100 ~pass:10 ~n_regions:1 ~phase:99 ~region:0)

let test_model_expectation_bounds () =
  (* E(latency) sits between pass/n and period + pass. *)
  let e = Dm.expected_latency ~period:1000 ~pass:200 ~n_regions:8 in
  check_bool "lower bound" true (e > 25.0);
  check_bool "upper bound" true (e < 1200.0);
  (* dominated by T/2 plus the mean inspection end offset *)
  check_bool "near T/2 + pass/2" true (abs_float (e -. 600.0) < 120.0)

let test_model_monotone_in_period () =
  let e t = Dm.expected_latency ~period:t ~pass:100 ~n_regions:4 in
  check_bool "shorter period detects faster" true (e 500 < e 1000);
  check_bool "and again" true (e 1000 < e 2000)

let test_model_monotone_in_pass () =
  (* At a fixed period, a faster (less interrupted) pass detects
     sooner — the migration benefit of Fig. 5a. *)
  let e p = Dm.expected_latency ~period:10000 ~pass:p ~n_regions:64 in
  check_bool "faster pass, faster detection" true (e 5342 < e 6884)

let test_model_pass_stretching_is_second_order () =
  (* A finding the model makes precise: under *uniform* attack phases
     the pass-time effect nearly cancels (a stretched pass inspects
     later, but thereby catches more phases in the current pass), so
     stretching 5342 -> 6884 at T = 10000 buys well under 1% — the
     asymptotic speedup is only the slice-length difference. The
     4.85% measured in Fig. 5a is a finite-window effect: attacks
     land early in the phase cycle of two synchronized scanners, where
     the unstretched (migrating) scanner's earlier inspection finishes
     pay off directly. doc/ANALYSIS.md discusses this. *)
  let pct =
    Dm.speedup_pct ~period_a:10000 ~pass_a:5342 ~period_b:10000 ~pass_b:6884
      ~n_regions:64
  in
  check_bool
    (Printf.sprintf "asymptotic speedup %.2f%% is sub-1%%" pct)
    true
    (pct > 0.0 && pct < 1.0);
  (* whereas halving the *period* is first-order: *)
  let period_pct =
    Dm.speedup_pct ~period_a:5000 ~pass_a:5000 ~period_b:10000 ~pass_b:5342
      ~n_regions:64
  in
  check_bool
    (Printf.sprintf "period halving buys %.1f%%" period_pct)
    true (period_pct > 25.0)

let prop_model_matches_detection_monitor =
  (* The closed-form latency equals what the Detection monitor
     measures on an uninterrupted scanner, for every phase/region. *)
  let arb =
    QCheck.(
      quad (int_range 1 12) (int_range 12 40) (int_range 40 200)
        (int_range 0 10_000))
  in
  Test_util.qtest ~count:100 "model = monitored latency" arb
    (fun (n_regions, pass, period, salt) ->
      let phase = salt mod period in
      let region = salt mod n_regions in
      (* Drive a Detection monitor with back-to-back uninterrupted
         jobs released at 0, T, 2T, ... and an attack at [phase]. *)
      let detected = ref None in
      let target =
        { Security.Detection.n_regions;
          check_region =
            (fun ~region:r ~started ~finished ->
              r = region && started >= phase
              && (match !detected with
                 | None ->
                     detected := Some finished;
                     true
                 | Some _ -> true)) }
      in
      let monitor =
        Security.Detection.create ~sim_id:7 ~wcet:pass ~target
      in
      let st =
        { Sim.Engine.st_id = 7; st_name = "scan"; st_wcet = pass;
          st_period = period; st_deadline = period; st_prio = 0;
          st_core = None; st_offset = 0 }
      in
      for j = 0 to 3 do
        let job =
          { Sim.Engine.j_task = st; j_seq = j; j_release = j * period;
            j_abs_deadline = ((j + 1) * period); j_remaining = pass;
            j_last_core = -1; j_started_at = -1 }
        in
        Security.Detection.on_execute monitor job ~core:0
          ~start:(j * period) ~stop:((j * period) + pass)
      done;
      match Security.Detection.detection_time monitor with
      | None -> false
      | Some t ->
          t - phase
          = Dm.latency_at ~period ~pass ~n_regions ~phase ~region)

(* ------------------------------------------------------------------ *)
(* Priority assignment *)

module Pa = Hydra.Priority_assignment

let test_pa_apply_dense_priorities () =
  let secs =
    [| sec ~id:0 ~prio:7 30 300; sec ~id:1 ~prio:3 10 100;
       sec ~id:2 ~prio:5 20 200 |]
  in
  List.iter
    (fun ordering ->
      let out = Pa.apply ordering secs in
      let prios =
        Array.to_list (Array.map (fun s -> s.Task.sec_prio) out)
        |> List.sort compare
      in
      Alcotest.(check (list int))
        (Pa.ordering_name ordering ^ " priorities dense")
        [ 0; 1; 2 ] prios)
    Pa.all_orderings

let test_pa_orderings_sort_correctly () =
  let secs =
    [| sec ~id:0 ~prio:0 30 300; sec ~id:1 ~prio:1 10 100;
       sec ~id:2 ~prio:2 20 600 |]
  in
  let first_of ordering =
    let out = Pa.apply ordering secs in
    (Array.to_list out
    |> List.find (fun s -> s.Task.sec_prio = 0)).Task.sec_id
  in
  check_int "designer keeps id 0 first" 0 (first_of Pa.Designer);
  check_int "wcet-asc puts the 10-wcet task first" 1
    (first_of Pa.Wcet_ascending);
  check_int "wcet-desc puts the 30-wcet task first" 0
    (first_of Pa.Wcet_descending);
  check_int "tmax-asc puts the 100-bound task first" 1
    (first_of Pa.Bound_ascending);
  (* utilizations: 0.1, 0.1, 0.033 — tie between ids 0 and 1, id wins *)
  check_int "util-desc breaks tie by id" 0
    (first_of Pa.Utilization_descending)

let test_pa_first_schedulable_on_rover () =
  let ts, sys = rover_system () in
  match Pa.first_schedulable sys ts.Task.sec with
  | Some (Pa.Designer, assignments) ->
      check_int "both tasks assigned" 2 (List.length assignments)
  | Some _ -> Alcotest.fail "designer order schedules the rover"
  | None -> Alcotest.fail "rover must be schedulable"

let test_pa_best_by_distance_dominates_designer () =
  let ts, sys = rover_system () in
  match
    ( Pa.best_by_distance sys ts.Task.sec,
      Pa.select_with sys ts.Task.sec Pa.Designer )
  with
  | Some (_, _, best), Period_selection.Schedulable designer ->
      let n_sec = Array.length ts.Task.sec in
      let designer_distance =
        Metrics.normalized_distance_to_bound
          ~periods:(Period_selection.period_vector designer ~n_sec)
          ~bounds:
            (let v = Array.make n_sec 0 in
             Array.iter
               (fun s -> v.(s.Task.sec_id) <- s.Task.sec_period_max)
               ts.Task.sec;
             v)
      in
      check_bool "best ordering at least as frequent as designer" true
        (best +. 1e-9 >= designer_distance)
  | None, _ -> Alcotest.fail "rover must be schedulable"
  | _, Period_selection.Unschedulable ->
      Alcotest.fail "designer order schedules the rover"

let prop_pa_search_prefers_designer =
  (* first_schedulable tries Designer first, so a non-Designer result
     implies the designer order is genuinely unschedulable. *)
  let arb = Test_util.arb_taskset ~n_cores:2 ~n_rt:3 ~n_sec:4 in
  Test_util.qtest ~count:60 "search order respected" arb (fun ts ->
      let sys =
        Analysis.make_system ts
          ~assignment:(Test_util.round_robin_assignment ts)
      in
      match Pa.first_schedulable sys ts.Task.sec with
      | None | Some (Pa.Designer, _) -> true
      | Some (_, _) ->
          Pa.select_with sys ts.Task.sec Pa.Designer
          = Period_selection.Unschedulable)

(* ------------------------------------------------------------------ *)
(* Sensitivity *)

module Sensitivity = Hydra.Sensitivity

let test_sensitivity_rover () =
  let ts, sys = rover_system () in
  let report = Sensitivity.analyze sys ts.Task.sec in
  (match report.Sensitivity.global_headroom_pct with
  | None -> Alcotest.fail "rover is schedulable, headroom must exist"
  | Some pct -> check_bool "headroom above nominal" true (pct >= 100));
  List.iter
    (fun (_, per_task) ->
      match (report.Sensitivity.global_headroom_pct, per_task) with
      | Some g, Some p ->
          check_bool "single-task headroom >= global" true (p >= g)
      | _, None -> Alcotest.fail "per-task headroom must exist"
      | None, _ -> ())
    report.Sensitivity.per_task_headroom_pct

let test_sensitivity_unschedulable () =
  let rt = [ Task.make_rt ~id:0 ~prio:0 ~wcet:9 ~period:10 () ] in
  let ts = Task.make_taskset ~n_cores:1 ~rt ~sec:[ sec ~id:0 100 200 ] in
  let sys = Analysis.make_system ts ~assignment:[| 0 |] in
  let report = Sensitivity.analyze sys ts.Task.sec in
  Alcotest.(check (option int)) "no headroom" None
    report.Sensitivity.global_headroom_pct

let test_sensitivity_scale_semantics () =
  let ts, sys = rover_system () in
  check_bool "100% = nominal schedulability" true
    (Sensitivity.schedulable_with_scale sys ts.Task.sec ~scale_pct:100
       ~only:None);
  (* kmod alone can grow enormously (it is tiny); tripwire cannot even
     double (2x5342 > 10000). *)
  let tripwire = ts.Task.sec.(0) in
  check_bool "tripwire cannot double" false
    (Sensitivity.schedulable_with_scale sys ts.Task.sec ~scale_pct:200
       ~only:(Some tripwire))

let test_sensitivity_headroom_is_maximal () =
  let ts, sys = rover_system () in
  let report = Sensitivity.analyze sys ts.Task.sec in
  match report.Sensitivity.global_headroom_pct with
  | None -> Alcotest.fail "expected headroom"
  | Some pct ->
      check_bool "feasible at reported headroom" true
        (Sensitivity.schedulable_with_scale sys ts.Task.sec ~scale_pct:pct
           ~only:None);
      check_bool "infeasible one percent above" false
        (Sensitivity.schedulable_with_scale sys ts.Task.sec
           ~scale_pct:(pct + 1) ~only:None)

let test_sensitivity_render () =
  let ts, sys = rover_system () in
  let out =
    Format.asprintf "%a" Sensitivity.render (Sensitivity.analyze sys ts.Task.sec)
  in
  check_bool "mentions tripwire" true (String.length out > 0)

(* ------------------------------------------------------------------ *)
(* Scheme front-end *)

let test_scheme_names () =
  Alcotest.(check (list string)) "names"
    [ "HYDRA-C"; "HYDRA"; "HYDRA-TMax"; "GLOBAL-TMax" ]
    (List.map Scheme.name Scheme.all)

let prop_scheme_outcomes_consistent =
  let arb = Test_util.arb_taskset ~n_cores:2 ~n_rt:3 ~n_sec:3 in
  Test_util.qtest ~count:60 "outcomes carry periods within bounds" arb
    (fun ts ->
      let rt_assignment = Test_util.round_robin_assignment ts in
      List.for_all
        (fun scheme ->
          let o = Scheme.evaluate scheme ts ~rt_assignment in
          match (o.Scheme.schedulable, o.Scheme.periods) with
          | false, _ -> o.Scheme.periods = None
          | true, None -> false
          | true, Some periods ->
              Array.for_all
                (fun (s : Task.sec_task) ->
                  let p = periods.(s.Task.sec_id) in
                  p >= s.Task.sec_wcet && p <= s.Task.sec_period_max)
                ts.Task.sec)
        Scheme.all)

let () =
  Alcotest.run "hydra"
    [ ( "analysis",
        [ Alcotest.test_case "alone R = C" `Quick test_analysis_alone;
          Alcotest.test_case "more cores than tasks" `Quick
            test_analysis_more_cores_than_tasks;
          Alcotest.test_case "single-core interference" `Quick
            test_analysis_single_core_interference;
          Alcotest.test_case "unschedulable" `Quick test_analysis_unschedulable;
          Alcotest.test_case "limit respected" `Quick
            test_analysis_limit_is_respected;
          Alcotest.test_case "RT interference term" `Quick
            test_analysis_rt_interference_term;
          Alcotest.test_case "carry-in subsets" `Quick test_carry_in_subsets;
          Alcotest.test_case "rover WCRT regression" `Quick
            test_rover_response_times;
          prop_top_delta_upper_bounds_exhaustive;
          prop_analysis_bounds_simulation ] );
      ( "period_selection",
        [ Alcotest.test_case "invariants on rover" `Quick
            test_selection_invariants_on_rover;
          Alcotest.test_case "unschedulable reported" `Quick
            test_selection_unschedulable_reported;
          Alcotest.test_case "high priority minimized first" `Quick
            test_selection_minimizes_high_priority_first;
          prop_selection_periods_feasible;
          prop_selection_minimality;
          prop_selection_never_below_tmax_feasibility;
          prop_selection_dominates_tmax_distance ] );
      ( "baseline_hydra",
        [ Alcotest.test_case "rover allocation regression" `Quick
            test_hydra_rover_allocation;
          Alcotest.test_case "tmax periods at bounds" `Quick
            test_hydra_tmax_periods_at_bounds;
          Alcotest.test_case "unschedulable" `Quick test_hydra_unschedulable;
          prop_hydra_allocation_feasible;
          Alcotest.test_case "coordinated on rover" `Quick
            test_hydra_coordinated_rover;
          prop_coordinated_acceptance_matches_tmax;
          prop_coordinated_periods_feasible;
          prop_rta_reported_once ] );
      ( "baseline_tmax",
        [ Alcotest.test_case "trivial schedulable" `Quick
            test_global_tmax_trivial;
          Alcotest.test_case "overload rejected" `Quick
            test_global_tmax_overload;
          Alcotest.test_case "priority order of names" `Quick
            test_global_response_names ] );
      ( "metrics",
        [ Alcotest.test_case "zero at bounds" `Quick
            test_distance_zero_when_at_bounds;
          Alcotest.test_case "bounded by one" `Quick
            test_distance_bounded_by_one;
          Alcotest.test_case "known value" `Quick test_distance_known_value;
          Alcotest.test_case "difference sign" `Quick test_mean_difference_sign;
          Alcotest.test_case "dimension mismatch" `Quick
            test_metrics_dim_mismatch;
          Alcotest.test_case "acceptance ratio" `Quick test_acceptance_ratio;
          Alcotest.test_case "mean and stddev" `Quick test_mean_and_stddev ] );
      ( "detection_model",
        [ Alcotest.test_case "single region" `Quick test_model_single_region;
          Alcotest.test_case "expectation bounds" `Quick
            test_model_expectation_bounds;
          Alcotest.test_case "monotone in period" `Quick
            test_model_monotone_in_period;
          Alcotest.test_case "monotone in pass" `Quick
            test_model_monotone_in_pass;
          Alcotest.test_case "pass stretching is second-order" `Quick
            test_model_pass_stretching_is_second_order;
          prop_model_matches_detection_monitor ] );
      ( "priority_assignment",
        [ Alcotest.test_case "dense priorities" `Quick
            test_pa_apply_dense_priorities;
          Alcotest.test_case "orderings sort correctly" `Quick
            test_pa_orderings_sort_correctly;
          Alcotest.test_case "first schedulable on rover" `Quick
            test_pa_first_schedulable_on_rover;
          Alcotest.test_case "best-by-distance dominates designer" `Quick
            test_pa_best_by_distance_dominates_designer;
          prop_pa_search_prefers_designer ] );
      ( "sensitivity",
        [ Alcotest.test_case "rover headroom" `Quick test_sensitivity_rover;
          Alcotest.test_case "unschedulable reported" `Quick
            test_sensitivity_unschedulable;
          Alcotest.test_case "scale semantics" `Quick
            test_sensitivity_scale_semantics;
          Alcotest.test_case "headroom is maximal" `Quick
            test_sensitivity_headroom_is_maximal;
          Alcotest.test_case "renders" `Quick test_sensitivity_render ] );
      ( "scheme",
        [ Alcotest.test_case "names" `Quick test_scheme_names;
          prop_scheme_outcomes_consistent ] ) ]
