(* Tests for the discrete-event multicore scheduler simulator: exact
   schedules on crafted scenarios, accounting invariants, policy
   semantics (partitioned / semi-partitioned / global) and the event
   log. *)

module Engine = Sim.Engine
module Policy = Sim.Policy
module Scenario = Sim.Scenario
module Task = Rtsched.Task

let check_int = Test_util.check_int
let check_bool = Test_util.check_bool

let task ?(core = None) ?(offset = 0) ~id ~prio ~wcet ~period () =
  { Engine.st_id = id; st_name = Printf.sprintf "t%d" id; st_wcet = wcet;
    st_period = period; st_deadline = period; st_prio = prio; st_core = core;
    st_offset = offset }

let run = Engine.run

(* The execution segments of one run, read from the event log's
   [Segment] events as (core, task id, job seq, start, stop). *)
let segments ~n_cores ~horizon tasks =
  let log = Sim.Event_log.create ~n_cores in
  ignore (run ~hooks:(Sim.Event_log.hooks log) ~n_cores ~horizon tasks);
  List.filter_map
    (fun e ->
      match e.Sim.Event_log.e_kind with
      | Sim.Event_log.Segment { core; stop } ->
          Some
            ( core, e.Sim.Event_log.e_task_id, e.Sim.Event_log.e_job_seq,
              e.Sim.Event_log.e_time, stop )
      | _ -> None)
    (Sim.Event_log.events log)

let stats_of stats id = Sim.Metrics.stats_of_sim_id stats ~sim_id:id

(* ------------------------------------------------------------------ *)
(* Basic engine behaviour *)

let test_single_task_periodic () =
  let t = task ~id:0 ~prio:0 ~wcet:2 ~period:10 () in
  let stats = run ~n_cores:1 ~horizon:100 [ t ] in
  let ts = stats_of stats 0 in
  check_int "released" 10 ts.Engine.ts_released;
  check_int "finished" 10 ts.Engine.ts_finished;
  check_int "max response = C" 2 ts.Engine.ts_max_response;
  check_int "no misses" 0 ts.Engine.ts_deadline_misses

let test_preemption_on_one_core () =
  (* hp (2,4), lp (2,4) on one core: lp responds in 4 exactly. *)
  let hp = task ~id:0 ~prio:0 ~wcet:2 ~period:4 () in
  let lp = task ~id:1 ~prio:1 ~wcet:2 ~period:4 () in
  let stats = run ~n_cores:1 ~horizon:40 [ hp; lp ] in
  check_int "hp response" 2 (stats_of stats 0).Engine.ts_max_response;
  check_int "lp response" 4 (stats_of stats 1).Engine.ts_max_response;
  check_int "no misses" 0
    ((stats_of stats 0).Engine.ts_deadline_misses
    + (stats_of stats 1).Engine.ts_deadline_misses)

let test_lp_actually_preempted () =
  (* hp (1,3), lp (4,12): lp runs in pieces around hp jobs. *)
  let hp = task ~id:0 ~prio:0 ~wcet:1 ~period:3 () in
  let lp = task ~id:1 ~prio:1 ~wcet:4 ~period:12 () in
  let stats = run ~n_cores:1 ~horizon:24 [ hp; lp ] in
  (* lp executes over [1,3),[4,6): finishes at 6 (resp 6). *)
  check_int "lp response with preemption" 6
    (stats_of stats 1).Engine.ts_max_response;
  check_bool "preemptions counted" true (stats.Engine.preemptions >= 1)

let test_two_cores_run_in_parallel () =
  let a = task ~core:(Some 0) ~id:0 ~prio:0 ~wcet:5 ~period:10 () in
  let b = task ~core:(Some 1) ~id:1 ~prio:1 ~wcet:5 ~period:10 () in
  let stats = run ~n_cores:2 ~horizon:10 [ a; b ] in
  check_int "a response" 5 (stats_of stats 0).Engine.ts_max_response;
  check_int "b response" 5 (stats_of stats 1).Engine.ts_max_response

let test_migrating_task_fills_idle_core () =
  (* Pinned hog on core 0; a lower-priority migrating task should slip
     onto core 1 immediately. *)
  let hog = task ~core:(Some 0) ~id:0 ~prio:0 ~wcet:10 ~period:10 () in
  let mig = task ~id:1 ~prio:1 ~wcet:4 ~period:10 () in
  let stats = run ~n_cores:2 ~horizon:10 [ hog; mig ] in
  check_int "migrating response = C" 4
    (stats_of stats 1).Engine.ts_max_response

let test_pinned_task_waits_for_its_core () =
  (* Same scenario, but the second task pinned to the busy core: it
     cannot use the idle core 1. *)
  let hog = task ~core:(Some 0) ~id:0 ~prio:0 ~wcet:6 ~period:20 () in
  let pinned = task ~core:(Some 0) ~id:1 ~prio:1 ~wcet:4 ~period:20 () in
  let stats = run ~n_cores:2 ~horizon:20 [ hog; pinned ] in
  check_int "pinned waits behind hog" 10
    (stats_of stats 1).Engine.ts_max_response

let test_global_policy_takes_top_m () =
  (* Three migrating tasks, two cores: the lowest priority runs only
     when a core frees up. C=(4,4,4), T=20. *)
  let t0 = task ~id:0 ~prio:0 ~wcet:4 ~period:20 () in
  let t1 = task ~id:1 ~prio:1 ~wcet:4 ~period:20 () in
  let t2 = task ~id:2 ~prio:2 ~wcet:4 ~period:20 () in
  let stats = run ~n_cores:2 ~horizon:20 [ t0; t1; t2 ] in
  check_int "t2 waits for first completion" 8
    (stats_of stats 2).Engine.ts_max_response

let test_deadline_miss_detected () =
  (* Overloaded single core: lp cannot make its implicit deadline. *)
  let hp = task ~id:0 ~prio:0 ~wcet:5 ~period:10 () in
  let lp = task ~id:1 ~prio:1 ~wcet:7 ~period:10 () in
  let stats = run ~n_cores:1 ~horizon:100 [ hp; lp ] in
  check_bool "misses recorded" true
    ((stats_of stats 1).Engine.ts_deadline_misses > 0);
  check_bool "aborts recorded" true ((stats_of stats 1).Engine.ts_aborted > 0)

let test_offset_delays_first_release () =
  let t = task ~offset:7 ~id:0 ~prio:0 ~wcet:2 ~period:10 () in
  let stats = run ~n_cores:1 ~horizon:20 [ t ] in
  check_int "two jobs: at 7 and 17" 2 (stats_of stats 0).Engine.ts_released

let test_busy_plus_idle_accounting () =
  let a = task ~core:(Some 0) ~id:0 ~prio:0 ~wcet:3 ~period:10 () in
  let stats = run ~n_cores:2 ~horizon:50 [ a ] in
  check_int "busy + idle = cores x horizon" (2 * 50)
    (stats.Engine.busy_ticks + stats.Engine.idle_ticks);
  check_int "busy = executed demand" 15 stats.Engine.busy_ticks

let test_validation_errors () =
  let expect_invalid name tasks =
    let raised =
      try ignore (run ~n_cores:2 ~horizon:10 tasks); false
      with Invalid_argument _ -> true
    in
    check_bool name true raised
  in
  expect_invalid "empty task list" [];
  expect_invalid "duplicate priorities"
    [ task ~id:0 ~prio:0 ~wcet:1 ~period:5 ();
      task ~id:1 ~prio:0 ~wcet:1 ~period:5 () ];
  expect_invalid "duplicate ids"
    [ task ~id:0 ~prio:0 ~wcet:1 ~period:5 ();
      task ~id:0 ~prio:1 ~wcet:1 ~period:5 () ];
  expect_invalid "pinned out of range"
    [ task ~core:(Some 9) ~id:0 ~prio:0 ~wcet:1 ~period:5 () ]

(* ------------------------------------------------------------------ *)
(* Hooks and trace *)

let test_on_execute_segments_sum_to_demand () =
  let executed = ref 0 in
  let hooks =
    { Engine.no_hooks with
      Engine.on_execute =
        Some (fun _ ~core:_ ~start ~stop -> executed := !executed + stop - start)
    }
  in
  let hp = task ~id:0 ~prio:0 ~wcet:1 ~period:3 () in
  let lp = task ~id:1 ~prio:1 ~wcet:4 ~period:12 () in
  let stats = run ~hooks ~n_cores:1 ~horizon:24 [ hp; lp ] in
  check_int "hook saw every executed tick" stats.Engine.busy_ticks !executed

let test_on_release_and_finish_fire () =
  let releases = ref 0 and finishes = ref 0 in
  let hooks =
    { Engine.no_hooks with
      Engine.on_release = Some (fun _ -> incr releases);
      Engine.on_finish = Some (fun _ ~finish:_ -> incr finishes) }
  in
  let t = task ~id:0 ~prio:0 ~wcet:2 ~period:10 () in
  ignore (run ~hooks ~n_cores:1 ~horizon:50 [ t ]);
  check_int "releases" 5 !releases;
  check_int "finishes" 5 !finishes

(* The migration-forcing scenario of test_migration_counted: two
   alternating pinned hogs squeeze a migrating low-prio task between
   the cores. *)
let migration_scenario () =
  [ task ~core:(Some 0) ~id:0 ~prio:0 ~wcet:3 ~period:6 ();
    task ~core:(Some 1) ~offset:3 ~id:1 ~prio:1 ~wcet:3 ~period:6 ();
    task ~id:2 ~prio:2 ~wcet:6 ~period:12 () ]

let test_preempt_migrate_hooks_match_counters () =
  let preempts = ref 0 and migrates = ref 0 in
  let hooks =
    { Engine.no_hooks with
      Engine.on_preempt = Some (fun _ ~core:_ ~time:_ -> incr preempts);
      Engine.on_migrate =
        Some
          (fun _ ~from_core ~to_core ~time:_ ->
            check_bool "migration changes core" true (from_core <> to_core);
            incr migrates) }
  in
  let stats = run ~hooks ~n_cores:2 ~horizon:48 (migration_scenario ()) in
  check_bool "scenario migrates" true (stats.Engine.migrations > 0);
  check_int "on_migrate fires once per counted migration"
    stats.Engine.migrations !migrates;
  check_int "on_preempt fires once per counted preemption"
    stats.Engine.preemptions !preempts

let test_event_log_records_schedule () =
  let log = Sim.Event_log.create ~n_cores:2 in
  let stats =
    run ~hooks:(Sim.Event_log.hooks log) ~n_cores:2 ~horizon:48
      (migration_scenario ())
  in
  let evs = Sim.Event_log.events log in
  check_int "length agrees" (List.length evs) (Sim.Event_log.length log);
  let count p = List.length (List.filter p evs) in
  let released =
    Array.fold_left (fun acc t -> acc + t.Engine.ts_released) 0
      stats.Engine.per_task
  and finished =
    Array.fold_left (fun acc t -> acc + t.Engine.ts_finished) 0
      stats.Engine.per_task
  in
  check_int "one Release per released job" released
    (count (fun e -> e.Sim.Event_log.e_kind = Sim.Event_log.Release));
  check_int "one Finish per finished job" finished
    (count (fun e ->
         match e.Sim.Event_log.e_kind with
         | Sim.Event_log.Finish _ -> true
         | _ -> false));
  check_int "one Migrate per counted migration" stats.Engine.migrations
    (count (fun e ->
         match e.Sim.Event_log.e_kind with
         | Sim.Event_log.Migrate _ -> true
         | _ -> false));
  check_int "one Preempt per counted preemption" stats.Engine.preemptions
    (count (fun e ->
         match e.Sim.Event_log.e_kind with
         | Sim.Event_log.Preempt _ -> true
         | _ -> false));
  (* Segments cover exactly the busy ticks. *)
  let seg_ticks =
    List.fold_left
      (fun acc e ->
        match e.Sim.Event_log.e_kind with
        | Sim.Event_log.Segment { stop; _ } ->
            acc + stop - e.Sim.Event_log.e_time
        | _ -> acc)
      0 evs
  in
  check_int "segments cover busy ticks" stats.Engine.busy_ticks seg_ticks

let test_event_log_chrome_trace () =
  let log = Sim.Event_log.create ~n_cores:2 in
  ignore
    (run ~hooks:(Sim.Event_log.hooks log) ~n_cores:2 ~horizon:48
       (migration_scenario ()));
  let json = Test_util.parse_json (Sim.Event_log.to_chrome log) in
  let evs = Test_util.as_list (Test_util.member "traceEvents" json) in
  let of_ph ph =
    List.filter
      (fun e -> Test_util.as_str (Test_util.member "ph" e) = ph)
      evs
  in
  (* One thread_name metadata row per core, under the expected names. *)
  let thread_names =
    List.filter_map
      (fun e ->
        if Test_util.as_str (Test_util.member "name" e) = "thread_name" then
          Some
            (Test_util.as_str
               (Test_util.member "name" (Test_util.member "args" e)))
        else None)
      (of_ph "M")
  in
  check_bool "row for core 0" true (List.mem "core 0" thread_names);
  check_bool "row for core 1" true (List.mem "core 1" thread_names);
  check_bool "slices present" true (of_ph "X" <> []);
  (* Flow events pair up: every start has exactly one finish with the
     same id, and the scenario migrates so there is at least one. *)
  let ids ph =
    List.sort compare
      (List.map (fun e -> Test_util.as_num (Test_util.member "id" e)) (of_ph ph))
  in
  let starts = ids "s" and finishes = ids "f" in
  check_bool "at least one migration flow" true (starts <> []);
  check_bool "flow starts and finishes pair by id" true (starts = finishes)

let test_trace_no_overlap_and_busy_time () =
  let hp = task ~id:0 ~prio:0 ~wcet:2 ~period:5 () in
  let mig = task ~id:1 ~prio:1 ~wcet:3 ~period:10 () in
  let segs = segments ~n_cores:2 ~horizon:50 [ hp; mig ] in
  (* No two segments of one core overlap, and no two segments of one
     job overlap across cores. *)
  let no_overlap same =
    let segs = Array.of_list segs in
    let ok = ref true in
    Array.iteri
      (fun x ((_, _, _, a, b) as sx) ->
        Array.iteri
          (fun y ((_, _, _, a', b') as sy) ->
            if x < y && same sx sy && a < b' && a' < b then ok := false)
          segs)
      segs;
    !ok
  in
  check_bool "no overlap on a core" true
    (no_overlap (fun (c, _, _, _, _) (c', _, _, _, _) -> c = c'));
  check_bool "no overlap within a job" true
    (no_overlap (fun (_, i, j, _, _) (_, i', j', _, _) -> i = i' && j = j'));
  let busy id =
    List.fold_left
      (fun acc (_, i, _, a, b) -> if i = id then acc + b - a else acc)
      0 segs
  in
  check_int "task 0 executed" 20 (busy 0);
  check_int "task 1 executed" 15 (busy 1)

(* ------------------------------------------------------------------ *)
(* Context switches and migrations *)

let test_migrations_zero_when_pinned () =
  let a = task ~core:(Some 0) ~id:0 ~prio:0 ~wcet:2 ~period:5 () in
  let b = task ~core:(Some 1) ~id:1 ~prio:1 ~wcet:2 ~period:5 () in
  let stats = run ~n_cores:2 ~horizon:100 [ a; b ] in
  check_int "pinned tasks never migrate" 0 stats.Engine.migrations

let test_migration_counted () =
  (* RT hog alternates on core 0; migrating task is pushed between
     cores: pinned(3,6) on core 0 and pinned(3,6) offset 3 on core 1
     force the migrating lp job to hop. *)
  let a = task ~core:(Some 0) ~id:0 ~prio:0 ~wcet:3 ~period:6 () in
  let b = task ~core:(Some 1) ~offset:3 ~id:1 ~prio:1 ~wcet:3 ~period:6 () in
  let mig = task ~id:2 ~prio:2 ~wcet:6 ~period:12 () in
  let stats = run ~n_cores:2 ~horizon:24 [ a; b; mig ] in
  check_bool "migrations happen" true (stats.Engine.migrations > 0);
  check_int "finished jobs" 2 (stats_of stats 2).Engine.ts_finished

let test_affinity_avoids_gratuitous_migration () =
  (* A migrating task alone on two cores must stay where it started. *)
  let t = task ~id:0 ~prio:0 ~wcet:3 ~period:6 () in
  let stats = run ~n_cores:2 ~horizon:60 [ t ] in
  check_int "no pointless migrations" 0 stats.Engine.migrations

let test_context_switches_counted () =
  (* One task alone: dispatch + completion per job = 2 occupant
     changes per job. *)
  let t = task ~id:0 ~prio:0 ~wcet:2 ~period:10 () in
  let stats = run ~n_cores:1 ~horizon:100 [ t ] in
  check_int "two switches per job" 20 stats.Engine.context_switches

let test_metrics_throughput_and_utilization () =
  let a = task ~core:(Some 0) ~id:0 ~prio:0 ~wcet:5 ~period:10 () in
  let stats = run ~n_cores:2 ~horizon:100 [ a ] in
  Alcotest.(check (float 1e-9)) "throughput" 0.1
    (Sim.Metrics.throughput stats ~sim_id:0);
  Alcotest.(check (float 1e-9)) "mean response" 5.0
    (Sim.Metrics.mean_response stats ~sim_id:0);
  Alcotest.(check (float 1e-9)) "utilization over 2 cores" 0.25
    (Sim.Metrics.core_utilization stats ~n_cores:2);
  check_bool "unknown id raises" true
    (try ignore (Sim.Metrics.stats_of_sim_id stats ~sim_id:99); false
     with Not_found -> true)

let test_trace_segments_of_core () =
  let a = task ~core:(Some 0) ~id:0 ~prio:0 ~wcet:2 ~period:10 () in
  let b = task ~core:(Some 1) ~id:1 ~prio:1 ~wcet:3 ~period:10 () in
  let segs = segments ~n_cores:2 ~horizon:30 [ a; b ] in
  let of_core m = List.filter (fun (c, _, _, _, _) -> c = m) segs in
  check_int "core 0 segments" 3 (List.length (of_core 0));
  check_int "core 1 segments" 3 (List.length (of_core 1));
  check_bool "core 1 runs only task 1" true
    (List.for_all (fun (_, i, _, _, _) -> i = 1) (of_core 1))

let test_policy_names () =
  Alcotest.(check (list string)) "names"
    [ "fully-partitioned"; "semi-partitioned"; "global" ]
    (List.map Policy.name
       [ Policy.Fully_partitioned; Policy.Semi_partitioned; Policy.Global_all ])

(* ------------------------------------------------------------------ *)
(* Deeper schedule properties *)

(* With synchronous release the schedule of a feasible taskset is
   periodic with the hyperperiod: per-task finish counts in the second
   hyperperiod equal those in the first. *)
let prop_hyperperiod_periodicity =
  let arb = Test_util.arb_taskset ~n_cores:2 ~n_rt:3 ~n_sec:0 in
  Test_util.qtest ~count:40 "synchronous schedules are hyperperiodic" arb
    (fun ts ->
      let assignment = Test_util.round_robin_assignment ts in
      QCheck.assume
        (Rtsched.Rta_uniproc.partitioned_rt_schedulable ts ~assignment);
      let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
      let lcm a b = a / gcd a b * b in
      let hyper =
        Array.fold_left (fun acc t -> lcm acc t.Task.rt_period) 1 ts.Task.rt
      in
      QCheck.assume (hyper <= 20000);
      let built =
        Scenario.of_taskset ts ~rt_assignment:assignment
          ~policy:Policy.Fully_partitioned ~sec_periods:[||] ()
      in
      let counts h =
        let stats = run ~n_cores:2 ~horizon:h built.Scenario.tasks in
        Array.map (fun ts -> ts.Engine.ts_finished) stats.Engine.per_task
      in
      let one = counts hyper and two = counts (2 * hyper) in
      Array.for_all2 (fun a b -> 2 * a = b) one two)

(* Work conservation for migrating tasks: whenever a migrating job is
   pending, no core is idle. Checked via the trace: total idle time
   must not overlap pending periods — approximated by the exact
   single-migrating-task case, where response = backlog-aware value. *)
let test_work_conserving_for_migrating_job () =
  (* Pinned load on both cores, staggered so exactly one core is free
     at any instant; a migrating task must run continuously. *)
  let a = task ~core:(Some 0) ~id:0 ~prio:0 ~wcet:5 ~period:10 () in
  let b = task ~core:(Some 1) ~offset:5 ~id:1 ~prio:1 ~wcet:5 ~period:10 () in
  let mig = task ~id:2 ~prio:2 ~wcet:8 ~period:20 () in
  let stats = run ~n_cores:2 ~horizon:20 [ a; b; mig ] in
  check_int "migrating job runs without waiting" 8
    (stats_of stats 2).Engine.ts_max_response

let test_simultaneous_completions () =
  (* Two pinned tasks finishing at the same instant on both cores. *)
  let a = task ~core:(Some 0) ~id:0 ~prio:0 ~wcet:4 ~period:8 () in
  let b = task ~core:(Some 1) ~id:1 ~prio:1 ~wcet:4 ~period:8 () in
  let stats = run ~n_cores:2 ~horizon:80 [ a; b ] in
  check_int "a finished" 10 (stats_of stats 0).Engine.ts_finished;
  check_int "b finished" 10 (stats_of stats 1).Engine.ts_finished

let test_wcet_equal_period_back_to_back () =
  (* util-1 task: jobs run back to back with no idle gap. *)
  let t = task ~id:0 ~prio:0 ~wcet:10 ~period:10 () in
  let stats = run ~n_cores:1 ~horizon:100 [ t ] in
  check_int "all jobs complete" 10 (stats_of stats 0).Engine.ts_finished;
  check_int "zero idle" 0 stats.Engine.idle_ticks;
  check_int "no misses" 0 (stats_of stats 0).Engine.ts_deadline_misses

let prop_busy_ticks_bounded_by_demand =
  (* Executed work never exceeds released demand. *)
  let arb = Test_util.arb_taskset ~n_cores:2 ~n_rt:4 ~n_sec:2 in
  Test_util.qtest ~count:50 "busy ticks <= released demand" arb (fun ts ->
      let bounds = Array.make (Array.length ts.Task.sec) 0 in
      Array.iter
        (fun s -> bounds.(s.Task.sec_id) <- s.Task.sec_period_max)
        ts.Task.sec;
      let built =
        Scenario.of_taskset ts
          ~rt_assignment:(Test_util.round_robin_assignment ts)
          ~policy:Policy.Semi_partitioned ~sec_periods:bounds ()
      in
      let stats = run ~n_cores:2 ~horizon:3000 built.Scenario.tasks in
      let demand =
        Array.fold_left
          (fun acc (t : Engine.task_stats) ->
            acc + (t.Engine.ts_released * t.Engine.ts_task.Engine.st_wcet))
          0 stats.Engine.per_task
      in
      stats.Engine.busy_ticks <= demand)

(* ------------------------------------------------------------------ *)
(* Overheads *)

let test_zero_overheads_identical () =
  let tasks =
    [ task ~id:0 ~prio:0 ~wcet:1 ~period:3 ();
      task ~id:1 ~prio:1 ~wcet:4 ~period:12 () ]
  in
  let a = run ~n_cores:1 ~horizon:120 tasks in
  let b =
    Engine.run ~overheads:Engine.no_overheads ~n_cores:1 ~horizon:120 tasks
  in
  check_int "same responses" (stats_of a 1).Engine.ts_max_response
    (stats_of b 1).Engine.ts_max_response;
  check_int "same switches" a.Engine.context_switches b.Engine.context_switches

let test_dispatch_cost_inflates_response () =
  let t = task ~id:0 ~prio:0 ~wcet:2 ~period:10 () in
  let stats =
    Engine.run
      ~overheads:{ Engine.dispatch_cost = 3; migration_cost = 0 }
      ~n_cores:1 ~horizon:100 [ t ]
  in
  (* each job pays one dispatch: response = 2 + 3 *)
  check_int "response includes dispatch cost" 5
    (stats_of stats 0).Engine.ts_max_response

let test_preemption_pays_twice () =
  (* hp (1,5) preempts lp (4,20) once; lp pays the dispatch cost for
     its initial dispatch and for the resumption. *)
  let hp = task ~id:0 ~prio:0 ~wcet:1 ~period:5 () in
  let lp = task ~id:1 ~prio:1 ~wcet:4 ~period:20 () in
  let plain = run ~n_cores:1 ~horizon:20 [ hp; lp ] in
  let costed =
    Engine.run
      ~overheads:{ Engine.dispatch_cost = 1; migration_cost = 0 }
      ~n_cores:1 ~horizon:20 [ hp; lp ]
  in
  check_bool "costed response strictly larger" true
    ((stats_of costed 1).Engine.ts_max_response
    > (stats_of plain 1).Engine.ts_max_response)

let test_migration_cost_charged () =
  (* The forced-migration scenario from above: with a large migration
     cost the migrating task's response grows. *)
  let a = task ~core:(Some 0) ~id:0 ~prio:0 ~wcet:3 ~period:6 () in
  let b = task ~core:(Some 1) ~offset:3 ~id:1 ~prio:1 ~wcet:3 ~period:6 () in
  let mig = task ~id:2 ~prio:2 ~wcet:6 ~period:12 () in
  let plain = run ~n_cores:2 ~horizon:24 [ a; b; mig ] in
  let costed =
    Engine.run
      ~overheads:{ Engine.dispatch_cost = 0; migration_cost = 2 }
      ~n_cores:2 ~horizon:24 [ a; b; mig ]
  in
  check_bool "migration cost visible" true
    ((stats_of costed 2).Engine.ts_max_response
    > (stats_of plain 2).Engine.ts_max_response)

let test_negative_overheads_rejected () =
  let t = task ~id:0 ~prio:0 ~wcet:1 ~period:5 () in
  let raised =
    try
      ignore
        (Engine.run
           ~overheads:{ Engine.dispatch_cost = -1; migration_cost = 0 }
           ~n_cores:1 ~horizon:10 [ t ]);
      false
    with Invalid_argument _ -> true
  in
  check_bool "negative cost rejected" true raised

(* ------------------------------------------------------------------ *)
(* Scenario builder *)

let rover_built policy =
  let ts = Security.Rover.taskset () in
  let n_sec = Array.length ts.Task.sec in
  let bounds = Array.make n_sec 0 in
  Array.iter
    (fun s -> bounds.(s.Task.sec_id) <- s.Task.sec_period_max)
    ts.Task.sec;
  ( ts,
    Scenario.of_taskset ts ~rt_assignment:(Security.Rover.rt_assignment ())
      ~policy ~sec_periods:bounds
      ?sec_cores:(if policy = Policy.Fully_partitioned then Some [| 1; 0 |] else None)
      () )

let test_scenario_priority_bands () =
  let _, built = rover_built Policy.Semi_partitioned in
  let max_rt_prio = ref min_int and min_sec_prio = ref max_int in
  (* rover RT tasks have sim ids 0-1, security tasks 2-3 *)
  List.iter
    (fun (t : Engine.sim_task) ->
      if t.Engine.st_id < 2 then max_rt_prio := max !max_rt_prio t.Engine.st_prio
      else min_sec_prio := min !min_sec_prio t.Engine.st_prio)
    built.Scenario.tasks;
  check_bool "security strictly below RT" true (!min_sec_prio > !max_rt_prio)

let test_scenario_policies_pin_correctly () =
  let _, semi = rover_built Policy.Semi_partitioned in
  let _, full = rover_built Policy.Fully_partitioned in
  let _, glob = rover_built Policy.Global_all in
  let core_of built id =
    (List.find (fun (t : Engine.sim_task) -> t.Engine.st_id = id)
       built.Scenario.tasks).Engine.st_core
  in
  Alcotest.(check (option int)) "semi: RT pinned" (Some 0) (core_of semi 0);
  Alcotest.(check (option int)) "semi: sec migrates" None (core_of semi 2);
  Alcotest.(check (option int)) "full: sec pinned" (Some 1) (core_of full 2);
  Alcotest.(check (option int)) "global: RT migrates" None (core_of glob 0)

let test_scenario_requires_sec_cores () =
  let ts = Security.Rover.taskset () in
  let raised =
    try
      ignore
        (Scenario.of_taskset ts
           ~rt_assignment:(Security.Rover.rt_assignment ())
           ~policy:Policy.Fully_partitioned ~sec_periods:[| 10000; 10000 |] ());
      false
    with Invalid_argument _ -> true
  in
  check_bool "missing sec_cores rejected" true raised

let test_scenario_rt_no_misses_on_rover () =
  let _, built = rover_built Policy.Semi_partitioned in
  let stats = run ~n_cores:2 ~horizon:60000 built.Scenario.tasks in
  check_int "rover RT tasks never miss" 0
    (Sim.Metrics.deadline_misses stats ~sim_ids:built.Scenario.rt_sim_ids)

(* Property: under any policy, RT tasks that pass partitioned TDA never
   miss in the simulator when security tasks run below them. *)
let prop_rt_isolated_from_security =
  let arb = Test_util.arb_taskset ~n_cores:2 ~n_rt:4 ~n_sec:3 in
  Test_util.qtest ~count:50 "security tasks never disturb RT" arb (fun ts ->
      let assignment = Test_util.round_robin_assignment ts in
      QCheck.assume
        (Rtsched.Rta_uniproc.partitioned_rt_schedulable ts ~assignment);
      let bounds = Array.make (Array.length ts.Task.sec) 0 in
      Array.iter
        (fun s -> bounds.(s.Task.sec_id) <- s.Task.sec_period_max)
        ts.Task.sec;
      let built =
        Scenario.of_taskset ts ~rt_assignment:assignment
          ~policy:Policy.Semi_partitioned ~sec_periods:bounds ()
      in
      let stats = run ~n_cores:2 ~horizon:4000 built.Scenario.tasks in
      Sim.Metrics.deadline_misses stats ~sim_ids:built.Scenario.rt_sim_ids = 0)

(* ------------------------------------------------------------------ *)
(* Calendar queue: the bucketed event queue behind the fast engine. *)

let test_calendar_orders_and_ties () =
  let q = Sim.Calendar.create ~slots:8 ~width:5 in
  (* Same key 20 on slots 5, 1, 3: ties must pop in slot order. *)
  List.iter
    (fun (i, k) -> Sim.Calendar.add q i ~key:k)
    [ (5, 20); (0, 7); (1, 20); (6, 3); (3, 20); (2, 41) ];
  check_int "size" 6 (Sim.Calendar.size q);
  check_bool "mem" true (Sim.Calendar.mem q 6);
  check_bool "not mem" false (Sim.Calendar.mem q 7);
  check_int "key" 41 (Sim.Calendar.key q 2);
  check_int "peek" 3 (Sim.Calendar.peek_min q);
  let popped = List.init 6 (fun _ -> Sim.Calendar.pop_min q) in
  Alcotest.(check (list int)) "pop order" [ 6; 0; 1; 3; 5; 2 ] popped;
  check_int "empty peek" max_int (Sim.Calendar.peek_min q)

let test_calendar_wraparound_years () =
  (* Keys far beyond n_buckets * width force year wraparound and the
     direct-search fallback. *)
  let q = Sim.Calendar.create ~slots:4 ~width:3 in
  List.iter
    (fun (i, k) -> Sim.Calendar.add q i ~key:k)
    [ (0, 1000); (1, 13); (2, 2000); (3, 500) ];
  check_int "min across years" 13 (Sim.Calendar.peek_min q);
  check_int "pop 1" 1 (Sim.Calendar.pop_min q);
  check_int "pop 3" 3 (Sim.Calendar.pop_min q);
  (* Re-add after popping: monotone keys are fine. *)
  Sim.Calendar.add q 1 ~key:750;
  check_int "pop re-added" 1 (Sim.Calendar.pop_min q);
  check_int "pop 0" 0 (Sim.Calendar.pop_min q);
  check_int "pop 2" 2 (Sim.Calendar.pop_min q);
  check_int "size" 0 (Sim.Calendar.size q)

let test_calendar_rejects_misuse () =
  let expect_invalid name f =
    let raised = try f (); false with Invalid_argument _ -> true in
    check_bool name true raised
  in
  expect_invalid "slots < 1" (fun () ->
      ignore (Sim.Calendar.create ~slots:0 ~width:1));
  let q = Sim.Calendar.create ~slots:2 ~width:1 in
  expect_invalid "pop empty" (fun () -> ignore (Sim.Calendar.pop_min q));
  expect_invalid "slot range" (fun () -> Sim.Calendar.add q 2 ~key:0);
  Sim.Calendar.add q 0 ~key:5;
  expect_invalid "double add" (fun () -> Sim.Calendar.add q 0 ~key:9);
  check_int "pop" 0 (Sim.Calendar.pop_min q);
  expect_invalid "non-monotone key" (fun () -> Sim.Calendar.add q 1 ~key:4)

let prop_calendar_matches_sorted_reference =
  let arb =
    QCheck.(
      make
        ~print:Print.(list (pair int int))
        Gen.(
          list_size (int_range 1 30)
            (pair (int_range 0 29) (int_range 0 200))))
  in
  Test_util.qtest ~count:100 "calendar pops (key, slot)-sorted" arb (fun adds ->
      let slots = 30 in
      let q = Sim.Calendar.create ~slots ~width:7 in
      (* Deduplicate slots (each may be enqueued once). *)
      let seen = Hashtbl.create 8 in
      let adds =
        List.filter
          (fun (s, _) ->
            if Hashtbl.mem seen s then false else (Hashtbl.add seen s (); true))
          adds
      in
      List.iter (fun (s, k) -> Sim.Calendar.add q s ~key:k) adds;
      let expected =
        List.sort
          (fun (s1, k1) (s2, k2) ->
            if k1 <> k2 then compare k1 k2 else compare s1 s2)
          adds
        |> List.map fst
      in
      let popped = List.map (fun _ -> Sim.Calendar.pop_min q) adds in
      popped = expected)

(* ------------------------------------------------------------------ *)
(* Engine vs. the reference stepper in test/oracle
   (Test_util.engines_agree, doc/SIMULATOR.md). *)

let engines_agree = Test_util.engines_agree

(* Raw scenarios: pins, offsets, overloads (forcing aborts), non-zero
   overheads — broader than what Scenario.of_taskset can build. *)
let arb_raw_scenario =
  let print (n_cores, specs, dc, mc) =
    Format.asprintf "n_cores=%d dispatch=%d migration=%d tasks=%a" n_cores dc
      mc
      (Format.pp_print_list (fun ppf (w, s, o, p) ->
           Format.fprintf ppf " (wcet %d, slack %d, offset %d, pin %d)" w s o p))
      specs
  in
  QCheck.make ~print
    QCheck.Gen.(
      int_range 1 3 >>= fun n_cores ->
      int_range 1 8 >>= fun n ->
      list_repeat n
        (quad (int_range 1 6) (int_range 0 18) (int_range 0 12)
           (int_range 0 n_cores))
      >>= fun specs ->
      pair (int_range 0 2) (int_range 0 3) >>= fun (dc, mc) ->
      return (n_cores, specs, dc, mc))

let tasks_of_specs n_cores specs =
  List.mapi
    (fun i (wcet, slack, offset, pin) ->
      let period = wcet + slack in
      { Engine.st_id = i; st_name = Printf.sprintf "t%d" i; st_wcet = wcet;
        st_period = period;
        st_deadline = max wcet (period - (slack / 2));
        st_prio = i;
        st_core = (if pin = n_cores then None else Some pin);
        st_offset = offset })
    specs

let prop_differential_raw =
  Test_util.qtest ~count:120 "fast = naive on raw scenarios" arb_raw_scenario
    (fun (n_cores, specs, dc, mc) ->
      let tasks = tasks_of_specs n_cores specs in
      engines_agree
        ~overheads:{ Engine.dispatch_cost = dc; migration_cost = mc }
        ~n_cores ~horizon:2500 tasks;
      true)

(* Scheme-shaped scenarios: every simulator policy (the pinning
   patterns of HYDRA / HYDRA-C / GLOBAL-TMax), security periods at
   both bounds. *)
let prop_differential_policies =
  let arb =
    QCheck.pair
      (Test_util.arb_taskset ~n_cores:2 ~n_rt:4 ~n_sec:3)
      (QCheck.oneofl
         [ (Policy.Fully_partitioned, true); (Policy.Fully_partitioned, false);
           (Policy.Semi_partitioned, true); (Policy.Semi_partitioned, false);
           (Policy.Global_all, true); (Policy.Global_all, false) ])
  in
  Test_util.qtest ~count:60 "fast = naive under every policy" arb
    (fun (ts, (policy, tight)) ->
      let assignment = Test_util.round_robin_assignment ts in
      let n_sec = Array.length ts.Task.sec in
      let bounds = Array.make n_sec 0 in
      Array.iter
        (fun s ->
          bounds.(s.Task.sec_id) <-
            (if tight then max 1 (s.Task.sec_period_max / 2)
             else s.Task.sec_period_max))
        ts.Task.sec;
      let sec_cores =
        if policy = Policy.Fully_partitioned then
          Some (Array.init n_sec (fun j -> j mod 2))
        else None
      in
      let built =
        Scenario.of_taskset ts ~rt_assignment:assignment ~policy
          ~sec_periods:bounds ?sec_cores ()
      in
      engines_agree ~n_cores:2 ~horizon:5000 built.Scenario.tasks;
      true)

(* Regression fixtures: deterministic scenarios concentrating the
   corner cases the QCheck search space visits only occasionally —
   same-tick release + completion + abort, abort of a running job
   (segment closed, no preempt event), migration chains under
   non-zero overheads, utilization-1 back-to-back execution. *)
let test_differential_abort_of_running_job () =
  (* Overloaded migrating task is aborted while running on its core. *)
  let hog0 = task ~core:(Some 0) ~id:0 ~prio:0 ~wcet:4 ~period:8 () in
  let hog1 = task ~core:(Some 1) ~offset:2 ~id:1 ~prio:1 ~wcet:5 ~period:10 () in
  let over = task ~id:2 ~prio:2 ~wcet:7 ~period:7 () in
  let spare = task ~id:3 ~prio:3 ~wcet:2 ~period:9 ~offset:1 () in
  engines_agree ~n_cores:2 ~horizon:600 [ hog0; hog1; over; spare ]

let test_differential_simultaneous_everything () =
  (* Harmonic periods align releases, completions and aborts on the
     same ticks across cores. *)
  let tasks =
    [ task ~core:(Some 0) ~id:0 ~prio:0 ~wcet:2 ~period:4 ();
      task ~core:(Some 1) ~id:1 ~prio:1 ~wcet:4 ~period:4 ();
      task ~id:2 ~prio:2 ~wcet:4 ~period:8 ();
      task ~id:3 ~prio:3 ~wcet:8 ~period:8 ();
      task ~id:4 ~prio:4 ~wcet:2 ~period:16 () ]
  in
  engines_agree ~n_cores:2 ~horizon:800 tasks

let test_differential_overheads_thrash () =
  (* Dispatch + migration costs under heavy preemption and migration:
     overhead-inflated jobs cross their own release boundaries. *)
  let tasks =
    [ task ~core:(Some 0) ~id:0 ~prio:0 ~wcet:1 ~period:3 ();
      task ~core:(Some 1) ~id:1 ~prio:1 ~wcet:1 ~period:3 ~offset:1 ();
      task ~id:2 ~prio:2 ~wcet:2 ~period:5 ();
      task ~id:3 ~prio:3 ~wcet:3 ~period:7 () ]
  in
  engines_agree
    ~overheads:{ Engine.dispatch_cost = 1; migration_cost = 2 }
    ~n_cores:2 ~horizon:700 tasks

let test_differential_util_one_chain () =
  let tasks =
    [ task ~id:0 ~prio:0 ~wcet:10 ~period:10 ();
      task ~id:1 ~prio:1 ~wcet:5 ~period:50 () ]
  in
  engines_agree ~n_cores:1 ~horizon:1000 tasks

let test_decision_events_counted () =
  (* One task, wcet 2, period 10, horizon 100: decision points are
     t=0 and then each completion/release boundary; engine and oracle
     must agree and the count must be positive. *)
  let t = task ~id:0 ~prio:0 ~wcet:2 ~period:10 () in
  let fast = Engine.run ~n_cores:1 ~horizon:100 [ t ] in
  let naive = Hydra_oracle.Naive_sim.run ~n_cores:1 ~horizon:100 [ t ] in
  check_int "equal decision counts" naive.Engine.decision_events
    fast.Engine.decision_events;
  (* 10 releases + 10 completions, release and completion never
     coincide (wcet < period): 20 decision points. *)
  check_int "exact decision count" 20 fast.Engine.decision_events

let () =
  Alcotest.run "sim"
    [ ( "engine",
        [ Alcotest.test_case "single periodic task" `Quick
            test_single_task_periodic;
          Alcotest.test_case "uniproc preemption response" `Quick
            test_preemption_on_one_core;
          Alcotest.test_case "preempted into pieces" `Quick
            test_lp_actually_preempted;
          Alcotest.test_case "parallel cores" `Quick
            test_two_cores_run_in_parallel;
          Alcotest.test_case "migrating task fills idle core" `Quick
            test_migrating_task_fills_idle_core;
          Alcotest.test_case "pinned task waits" `Quick
            test_pinned_task_waits_for_its_core;
          Alcotest.test_case "global runs top-M" `Quick
            test_global_policy_takes_top_m;
          Alcotest.test_case "deadline miss + abort" `Quick
            test_deadline_miss_detected;
          Alcotest.test_case "offsets" `Quick test_offset_delays_first_release;
          Alcotest.test_case "busy/idle accounting" `Quick
            test_busy_plus_idle_accounting;
          Alcotest.test_case "validation" `Quick test_validation_errors ] );
      ( "hooks_trace",
        [ Alcotest.test_case "on_execute covers demand" `Quick
            test_on_execute_segments_sum_to_demand;
          Alcotest.test_case "release/finish hooks" `Quick
            test_on_release_and_finish_fire;
          Alcotest.test_case "preempt/migrate hooks match counters" `Quick
            test_preempt_migrate_hooks_match_counters;
          Alcotest.test_case "event log records schedule" `Quick
            test_event_log_records_schedule;
          Alcotest.test_case "event log chrome trace" `Quick
            test_event_log_chrome_trace;
          Alcotest.test_case "trace no-overlap + busy time" `Quick
            test_trace_no_overlap_and_busy_time ] );
      ( "switching",
        [ Alcotest.test_case "no migration when pinned" `Quick
            test_migrations_zero_when_pinned;
          Alcotest.test_case "migration counted" `Quick test_migration_counted;
          Alcotest.test_case "affinity avoids churn" `Quick
            test_affinity_avoids_gratuitous_migration;
          Alcotest.test_case "context switches" `Quick
            test_context_switches_counted ] );
      ( "metrics_extra",
        [ Alcotest.test_case "throughput and utilization" `Quick
            test_metrics_throughput_and_utilization;
          Alcotest.test_case "segments of core" `Quick
            test_trace_segments_of_core;
          Alcotest.test_case "policy names" `Quick test_policy_names ] );
      ( "schedule_properties",
        [ prop_hyperperiod_periodicity;
          Alcotest.test_case "work conserving for migrating jobs" `Quick
            test_work_conserving_for_migrating_job;
          Alcotest.test_case "simultaneous completions" `Quick
            test_simultaneous_completions;
          Alcotest.test_case "util-1 back to back" `Quick
            test_wcet_equal_period_back_to_back;
          prop_busy_ticks_bounded_by_demand ] );
      ( "overheads",
        [ Alcotest.test_case "zero costs are a no-op" `Quick
            test_zero_overheads_identical;
          Alcotest.test_case "dispatch cost inflates response" `Quick
            test_dispatch_cost_inflates_response;
          Alcotest.test_case "preemption pays twice" `Quick
            test_preemption_pays_twice;
          Alcotest.test_case "migration cost charged" `Quick
            test_migration_cost_charged;
          Alcotest.test_case "negative costs rejected" `Quick
            test_negative_overheads_rejected ] );
      ( "scenario",
        [ Alcotest.test_case "priority bands" `Quick
            test_scenario_priority_bands;
          Alcotest.test_case "policies pin correctly" `Quick
            test_scenario_policies_pin_correctly;
          Alcotest.test_case "requires sec_cores" `Quick
            test_scenario_requires_sec_cores;
          Alcotest.test_case "rover RT never misses" `Quick
            test_scenario_rt_no_misses_on_rover;
          prop_rt_isolated_from_security ] );
      ( "calendar",
        [ Alcotest.test_case "orders and ties" `Quick
            test_calendar_orders_and_ties;
          Alcotest.test_case "wraparound years" `Quick
            test_calendar_wraparound_years;
          Alcotest.test_case "rejects misuse" `Quick
            test_calendar_rejects_misuse;
          prop_calendar_matches_sorted_reference ] );
      ( "differential",
        [ prop_differential_raw;
          prop_differential_policies;
          Alcotest.test_case "abort of running job" `Quick
            test_differential_abort_of_running_job;
          Alcotest.test_case "simultaneous everything" `Quick
            test_differential_simultaneous_everything;
          Alcotest.test_case "overheads thrash" `Quick
            test_differential_overheads_thrash;
          Alcotest.test_case "util-1 chain" `Quick
            test_differential_util_one_chain;
          Alcotest.test_case "decision events counted" `Quick
            test_decision_events_counted ] ) ]
