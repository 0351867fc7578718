(* Tests for the scheduling substrate: task model, workload functions
   (Eqs. 2-5), uniprocessor TDA (Eq. 1), partitioning heuristics and
   the global multicore RTA. *)

module Task = Rtsched.Task
module Workload = Rtsched.Workload
module Rta = Rtsched.Rta_uniproc
module Partition = Rtsched.Partition
module Global = Rtsched.Rta_global

let check_int = Test_util.check_int
let check_bool = Test_util.check_bool

(* ------------------------------------------------------------------ *)
(* Task model *)

let test_make_rt_defaults () =
  let t = Task.make_rt ~id:3 ~prio:1 ~wcet:2 ~period:10 () in
  check_int "implicit deadline" 10 t.Task.rt_deadline;
  Alcotest.(check string) "default name" "rt3" t.Task.rt_name

let test_make_rt_rejects_bad_wcet () =
  let raised =
    try ignore (Task.make_rt ~id:0 ~prio:0 ~wcet:0 ~period:10 ()); false
    with Task.Invalid_task _ -> true
  in
  check_bool "wcet < 1 rejected" true raised

(* Times, task counts and core counts are bounded at the constructors
   (doc/ANALYSIS.md, "Numeric range"): each bound is admitted, one past
   it refused. *)
let test_bounds () =
  let refused f =
    match f () with _ -> false | exception Task.Invalid_task _ -> true
  in
  let max = Task.max_time in
  let rt period () = Task.make_rt ~id:0 ~prio:0 ~wcet:1 ~period () in
  let sec period_max () = Task.make_sec ~id:0 ~prio:0 ~wcet:1 ~period_max () in
  let secs n =
    List.init n (fun i -> Task.make_sec ~id:i ~prio:i ~wcet:1 ~period_max:9 ())
  in
  let taskset n_cores n () = Task.make_taskset ~n_cores ~rt:[] ~sec:(secs n) in
  check_bool "rt period at max_time" false (refused (rt max));
  check_bool "rt period above" true (refused (rt (max + 1)));
  check_bool "T^max at max_time" false (refused (sec max));
  check_bool "T^max above" true (refused (sec (max + 1)));
  check_bool "max_cores" false (refused (taskset Task.max_cores 1));
  check_bool "cores above" true (refused (taskset (Task.max_cores + 1) 1));
  check_bool "max_tasks" false (refused (taskset 1 Task.max_tasks));
  check_bool "tasks above" true (refused (taskset 1 (Task.max_tasks + 1)))

let test_make_rt_rejects_deadline_gt_period () =
  let raised =
    try
      ignore (Task.make_rt ~id:0 ~prio:0 ~wcet:1 ~period:5 ~deadline:6 ());
      false
    with Task.Invalid_task _ -> true
  in
  check_bool "deadline > period rejected" true raised

let test_make_sec_rejects_tight_bound () =
  let raised =
    try
      ignore (Task.make_sec ~id:0 ~prio:0 ~wcet:10 ~period_max:9 ());
      false
    with Task.Invalid_task _ -> true
  in
  check_bool "period_max < wcet rejected" true raised

let test_taskset_rejects_duplicate_priorities () =
  let rt =
    [ Task.make_rt ~id:0 ~prio:0 ~wcet:1 ~period:10 ();
      Task.make_rt ~id:1 ~prio:0 ~wcet:1 ~period:20 () ]
  in
  let raised =
    try ignore (Task.make_taskset ~n_cores:1 ~rt ~sec:[]); false
    with Task.Invalid_task _ -> true
  in
  check_bool "duplicate priority rejected" true raised

let test_rate_monotonic_order () =
  let tasks =
    [ Task.make_rt ~id:0 ~prio:9 ~wcet:1 ~period:100 ();
      Task.make_rt ~id:1 ~prio:9 ~wcet:1 ~period:10 ();
      Task.make_rt ~id:2 ~prio:9 ~wcet:1 ~period:50 () ]
  in
  let rm = Task.assign_rate_monotonic tasks in
  let prio_of id = (List.find (fun t -> t.Task.rt_id = id) rm).Task.rt_prio in
  check_int "shortest period highest" 0 (prio_of 1);
  check_int "middle" 1 (prio_of 2);
  check_int "longest period lowest" 2 (prio_of 0)

let test_utilization_accounting () =
  let rt = [ Task.make_rt ~id:0 ~prio:0 ~wcet:25 ~period:100 () ] in
  let sec = [ Task.make_sec ~id:0 ~prio:0 ~wcet:50 ~period_max:200 () ] in
  let ts = Task.make_taskset ~n_cores:2 ~rt ~sec in
  Alcotest.(check (float 1e-9)) "rt util" 0.25 (Task.total_rt_utilization ts);
  Alcotest.(check (float 1e-9)) "total min util" 0.5
    (Task.total_min_utilization ts);
  Alcotest.(check (float 1e-9)) "normalized" 0.25
    (Task.normalized_utilization ts)

(* ------------------------------------------------------------------ *)
(* Workload functions *)

(* Brute-force synchronous workload: jobs released at 0, T, 2T, ...,
   each executing [wcet] ticks immediately on release (Lemma 1's
   as-early-as-possible pattern). *)
let brute_force_nc ~wcet ~period x =
  let acc = ref 0 in
  for t = 0 to x - 1 do
    let release = t / period * period in
    if t < release + wcet then incr acc
  done;
  !acc

let test_non_carry_in_matches_brute_force () =
  List.iter
    (fun (wcet, period) ->
      for x = 0 to 3 * period do
        check_int
          (Printf.sprintf "W_nc C=%d T=%d x=%d" wcet period x)
          (brute_force_nc ~wcet ~period x)
          (Workload.non_carry_in ~wcet ~period x)
      done)
    [ (1, 4); (3, 7); (5, 5); (2, 10) ]

let test_non_carry_in_edge_cases () =
  check_int "x=0" 0 (Workload.non_carry_in ~wcet:3 ~period:10 0);
  check_int "negative window" 0 (Workload.non_carry_in ~wcet:3 ~period:10 (-5));
  check_int "exactly one period" 3 (Workload.non_carry_in ~wcet:3 ~period:10 10)

let test_request_bound_dominates_nc () =
  for x = 0 to 100 do
    let nc = Workload.non_carry_in ~wcet:3 ~period:10 x in
    let rb = Workload.request_bound ~wcet:3 ~period:10 x in
    check_bool (Printf.sprintf "rbf >= W_nc at %d" x) true (rb >= nc)
  done

let test_carry_in_formula () =
  (* C=3, T=10, R=5: xbar = 3-1+10-5 = 7.
     W_ci(x) = W_nc(max(x-7,0)) + min(x,2). *)
  check_int "x=2" 2 (Workload.carry_in ~wcet:3 ~period:10 ~resp:5 2);
  check_int "x=7" 2 (Workload.carry_in ~wcet:3 ~period:10 ~resp:5 7);
  check_int "x=10"
    (Workload.non_carry_in ~wcet:3 ~period:10 3 + 2)
    (Workload.carry_in ~wcet:3 ~period:10 ~resp:5 10);
  check_int "x=0" 0 (Workload.carry_in ~wcet:3 ~period:10 ~resp:5 0)

(* Brute-force carry-in workload, Eq. 4's pattern: the carry-in job
   runs its last C - 1 ticks from the window's start and finishes at
   C - 1, R after its release; the next jobs are released every T from
   xbar = C - 1 + T - R on, each running at once as in
   [brute_force_nc]. *)
let brute_force_ci ~wcet ~period ~resp x =
  let xbar = wcet - 1 + period - resp in
  let acc = ref 0 in
  for t = 0 to x - 1 do
    if t < wcet - 1 || (t >= xbar && (t - xbar) mod period < wcet) then
      incr acc
  done;
  !acc

let test_carry_in_matches_brute_force () =
  for wcet = 1 to 6 do
    for period = wcet to 12 do
      for resp = wcet to period do
        for x = 0 to (3 * period) + wcet do
          let brute = brute_force_ci ~wcet ~period ~resp x in
          let w = Workload.carry_in ~wcet ~period ~resp x in
          if w <> brute then
            Alcotest.failf "W_ci C=%d T=%d R=%d x=%d: %d, brute force %d" wcet
              period resp x w brute
        done
      done
    done
  done

let test_interference_clamp () =
  check_int "clamped" 6 (Workload.interference ~job_wcet:5 ~window:10 100);
  check_int "not clamped" 3 (Workload.interference ~job_wcet:5 ~window:10 3);
  check_int "never negative" 0
    (Workload.interference ~job_wcet:20 ~window:10 100)

let prop_workload_monotone =
  let arb =
    QCheck.(triple (int_range 1 20) (int_range 1 50) (int_range 0 200))
  in
  Test_util.qtest "W_nc monotone in x" arb (fun (wcet, p, x) ->
      let period = max wcet p in
      Workload.non_carry_in ~wcet ~period x
      <= Workload.non_carry_in ~wcet ~period (x + 1))

let prop_workload_antitone_in_period =
  (* Longer period never increases the synchronous workload — the
     monotonicity Algorithm 2's binary search relies on. *)
  let arb =
    QCheck.(triple (int_range 1 20) (int_range 1 100) (int_range 0 300))
  in
  Test_util.qtest "W_nc antitone in period" arb (fun (wcet, p, x) ->
      let period = max wcet p in
      Workload.non_carry_in ~wcet ~period x
      >= Workload.non_carry_in ~wcet ~period:(period + 1) x)

let prop_carry_in_bounds =
  let arb =
    QCheck.(
      quad (int_range 1 20) (int_range 1 100) (int_range 0 100)
        (int_range 0 300))
  in
  Test_util.qtest "W_ci within [0, x]" arb (fun (wcet, p, slack, x) ->
      let period = max wcet p in
      let resp = min period (wcet + slack) in
      let w = Workload.carry_in ~wcet ~period ~resp x in
      w >= 0 && w <= max 0 x)

(* The kernel's clamp = Eq. 5's, at the top of the numeric range:
   windows within 2^12 of Task.max_time, job WCETs small or within
   2^13 of it (so the cap x - C + 1 also falls to 0 and below), and
   workloads at the cap and one either side, or anywhere up to
   2 Task.max_time. *)
let prop_clamped_equals_interference_near_max_time =
  let max_time = Task.max_time in
  let gen =
    let open QCheck.Gen in
    int_bound 4096 >>= fun a ->
    oneof [ int_range 1 4096; int_bound 8192 >|= fun c -> max_time - c ]
    >>= fun job_wcet ->
    let x = max_time - a in
    let cap = x - job_wcet + 1 in
    oneof
      [ int_range (-1) 1 >|= (fun d -> max 0 (cap + d));
        int_range 0 (2 * max_time) ]
    >|= fun w -> (job_wcet, x, w)
  in
  let print (job_wcet, x, w) = Printf.sprintf "C=%d x=%d w=%d" job_wcet x w in
  Test_util.qtest ~count:500 "Guan.clamped = interference near max_time"
    (QCheck.make ~print gen) (fun (job_wcet, x, w) ->
      Rtsched.Guan.clamped (Rtsched.Guan.runs ~n_cores:2) ~job_wcet x w
      = Workload.interference ~job_wcet ~window:x w)

(* ------------------------------------------------------------------ *)
(* Uniprocessor TDA *)

let hp wcet period = { Rta.hp_wcet = wcet; hp_period = period }

(* Runs [f] on a fresh tally, which must then hold exactly the one
   call's verdict. *)
let tallied f =
  let tally = Rtsched.Guan.make_tally () in
  let r = f ~tally in
  let converged = if Option.is_some r then 1 else 0 in
  if tally.converged <> converged || tally.diverged <> 1 - converged then
    Alcotest.failf "tally: %d converged, %d diverged for one call"
      tally.converged tally.diverged;
  r

(* Eq. 1 through a fresh tally. *)
let uniproc ~hp ~wcet ~limit =
  tallied (fun ~tally -> Rta.response_time ~tally ~hp ~wcet ~limit ())

let rt_response_time ~core t =
  tallied (fun ~tally -> Rta.rt_response_time ~tally ~core t)

let test_rta_no_interference () =
  Alcotest.(check (option int)) "alone" (Some 7)
    (uniproc ~hp:[] ~wcet:7 ~limit:100)

let test_rta_liu_layland_example () =
  (* Classic: tasks (1,4), (2,6), (3,13) on one core. *)
  Alcotest.(check (option int)) "tau1" (Some 1)
    (uniproc ~hp:[] ~wcet:1 ~limit:4);
  Alcotest.(check (option int)) "tau2" (Some 3)
    (uniproc ~hp:[ hp 1 4 ] ~wcet:2 ~limit:6);
  Alcotest.(check (option int)) "tau3" (Some 10)
    (uniproc ~hp:[ hp 1 4; hp 2 6 ] ~wcet:3 ~limit:13)

let test_rta_unschedulable () =
  Alcotest.(check (option int)) "over limit" None
    (uniproc ~hp:[ hp 5 10 ] ~wcet:6 ~limit:10)

let test_rta_exact_at_full_utilization () =
  (* (2,4) + (2,4): second task has R = 4 exactly. *)
  Alcotest.(check (option int)) "fits exactly" (Some 4)
    (uniproc ~hp:[ hp 2 4 ] ~wcet:2 ~limit:4)

let test_core_rt_schedulable () =
  let core =
    [ Task.make_rt ~id:0 ~prio:0 ~wcet:1 ~period:4 ();
      Task.make_rt ~id:1 ~prio:1 ~wcet:2 ~period:6 ();
      Task.make_rt ~id:2 ~prio:2 ~wcet:3 ~period:13 () ]
  in
  check_bool "liu-layland set schedulable" true (Rta.core_rt_schedulable core);
  let overloaded = Task.make_rt ~id:3 ~prio:3 ~wcet:4 ~period:14 () :: core in
  check_bool "overloaded set" false (Rta.core_rt_schedulable overloaded)

(* Response time bounds observed behaviour: simulate one core and
   compare the maximum observed response against the analysis. *)
let prop_rta_bounds_simulation =
  let arb = Test_util.arb_taskset ~n_cores:1 ~n_rt:4 ~n_sec:0 in
  Test_util.qtest ~count:60 "uniproc RTA bounds simulated responses" arb
    (fun ts ->
      let core = Array.to_list ts.Task.rt in
      QCheck.assume (Rta.core_rt_schedulable core);
      let built =
        Sim.Scenario.of_taskset ts
          ~rt_assignment:(Array.make (Array.length ts.Task.rt) 0)
          ~policy:Sim.Policy.Fully_partitioned ~sec_periods:[||] ()
      in
      let stats =
        Sim.Engine.run ~n_cores:1 ~horizon:3000 built.Sim.Scenario.tasks
      in
      Array.for_all
        (fun (t : Task.rt_task) ->
          match rt_response_time ~core t with
          | None -> false
          | Some bound ->
              Sim.Metrics.max_response stats
                ~sim_id:built.Sim.Scenario.rt_sim_ids.(t.Task.rt_id)
              <= bound)
        ts.Task.rt)

(* ------------------------------------------------------------------ *)
(* Partitioning *)

let test_partition_respects_tda () =
  let rt =
    List.init 6 (fun i ->
        Task.make_rt ~id:i ~prio:i ~wcet:3 ~period:(10 + i) ())
  in
  let ts = Task.make_taskset ~n_cores:2 ~rt ~sec:[] in
  match Partition.partition_rt ts with
  | None -> Alcotest.fail "expected partitionable"
  | Some assignment ->
      check_bool "assignment passes TDA" true
        (Rta.partitioned_rt_schedulable ts ~assignment)

let test_partition_fails_when_overloaded () =
  let rt =
    List.init 4 (fun i -> Task.make_rt ~id:i ~prio:i ~wcet:9 ~period:10 ())
  in
  let ts = Task.make_taskset ~n_cores:2 ~rt ~sec:[] in
  check_bool "overload unpartitionable" true (Partition.partition_rt ts = None)

let test_partition_single_core_exact_fit () =
  let rt =
    [ Task.make_rt ~id:0 ~prio:0 ~wcet:2 ~period:4 ();
      Task.make_rt ~id:1 ~prio:1 ~wcet:2 ~period:4 () ]
  in
  let ts = Task.make_taskset ~n_cores:1 ~rt ~sec:[] in
  check_bool "exactly fits one core" true (Partition.partition_rt ts <> None)

let test_cores_of_assignment_sorted () =
  let rt =
    [ Task.make_rt ~id:0 ~prio:1 ~wcet:1 ~period:10 ();
      Task.make_rt ~id:1 ~prio:0 ~wcet:1 ~period:5 () ]
  in
  let ts = Task.make_taskset ~n_cores:1 ~rt ~sec:[] in
  let cores = Partition.cores_of_assignment ts [| 0; 0 |] in
  match cores.(0) with
  | [ a; b ] ->
      check_int "highest priority first" 0 a.Task.rt_prio;
      check_int "then lower" 1 b.Task.rt_prio
  | _ -> Alcotest.fail "expected two tasks on core 0"

let prop_partition_heuristics_all_valid =
  let arb = Test_util.arb_taskset ~n_cores:3 ~n_rt:6 ~n_sec:0 in
  Test_util.qtest ~count:60 "every heuristic yields TDA-valid partitions" arb
    (fun ts ->
      List.for_all
        (fun heuristic ->
          match Partition.partition_rt ~heuristic ts with
          | None -> true
          | Some assignment -> Rta.partitioned_rt_schedulable ts ~assignment)
        [ Partition.Best_fit; Partition.First_fit; Partition.Worst_fit ])

(* ------------------------------------------------------------------ *)
(* Taskset file I/O *)

module Io = Rtsched.Taskset_io

let rover_file = "\
cores 2\n\
# comment line\n\
rt navigation 240 500\n\
rt camera 1120 5000 5000   # trailing comment\n\
sec tripwire 5342 10000\n\
sec kmod 223 10000\n"

let test_io_parse_rover () =
  match Io.parse rover_file with
  | Error msg -> Alcotest.fail msg
  | Ok ts ->
      check_int "cores" 2 ts.Task.n_cores;
      check_int "rt count" 2 (Array.length ts.Task.rt);
      check_int "sec count" 2 (Array.length ts.Task.sec);
      Alcotest.(check (float 1e-4)) "utilization" 1.2605
        (Task.total_min_utilization ts)

let test_io_rm_priorities_assigned () =
  match Io.parse rover_file with
  | Error msg -> Alcotest.fail msg
  | Ok ts ->
      let nav =
        Array.to_list ts.Task.rt
        |> List.find (fun t -> t.Task.rt_name = "navigation")
      in
      check_int "shorter period gets higher priority" 0 nav.Task.rt_prio

let test_io_sec_priority_is_file_order () =
  match Io.parse rover_file with
  | Error msg -> Alcotest.fail msg
  | Ok ts ->
      let tripwire =
        Array.to_list ts.Task.sec
        |> List.find (fun s -> s.Task.sec_name = "tripwire")
      in
      check_int "first sec line is highest priority" 0
        tripwire.Task.sec_prio

let test_io_round_trip () =
  match Io.parse rover_file with
  | Error msg -> Alcotest.fail msg
  | Ok ts -> (
      match Io.parse (Io.to_string ts) with
      | Error msg -> Alcotest.fail msg
      | Ok ts' ->
          Alcotest.(check string) "round-trip stable" (Io.to_string ts)
            (Io.to_string ts'))

let prop_io_round_trip_random =
  let arb = Test_util.arb_taskset ~n_cores:3 ~n_rt:5 ~n_sec:4 in
  Test_util.qtest ~count:100 "file format round-trips any taskset" arb
    (fun ts ->
      match Io.parse (Io.to_string ts) with
      | Error _ -> false
      | Ok ts' ->
          (* parameters survive; priorities are re-derived but stable *)
          Io.to_string ts = Io.to_string ts'
          && Array.length ts'.Task.rt = Array.length ts.Task.rt
          && Array.length ts'.Task.sec = Array.length ts.Task.sec
          && Rtsched.Task.total_min_utilization ts'
             = Rtsched.Task.total_min_utilization ts)

let test_io_errors () =
  let expect_error label content =
    match Io.parse content with
    | Ok _ -> Alcotest.failf "%s: expected an error" label
    | Error msg -> check_bool label true (String.length msg > 0)
  in
  expect_error "missing cores" "rt a 1 10\n";
  expect_error "bad integer" "cores 2\nrt a one 10\n";
  expect_error "unknown directive" "cores 2\nfoo bar\n";
  expect_error "invalid task" "cores 2\nrt a 0 10\n";
  expect_error "too many rt fields" "cores 2\nrt a 1 10 10 10\n"

(* ------------------------------------------------------------------ *)
(* Exact oracle vs TDA *)

module Exact = Hydra_oracle.Exact

(* Small divisor-friendly periods keep the hyperperiod tractable. *)
let arb_small_core =
  let open QCheck.Gen in
  let periods = [| 4; 5; 8; 10; 16; 20; 40 |] in
  let gen_task i =
    int_range 0 (Array.length periods - 1) >>= fun pi ->
    let period = periods.(pi) in
    int_range 1 (period / 2) >>= fun wcet ->
    return (Task.make_rt ~id:i ~prio:i ~wcet ~period ())
  in
  QCheck.make
    ~print:(fun tasks ->
      String.concat "; " (List.map Task.show_rt tasks))
    (int_range 2 4 >>= fun n -> flatten_l (List.init n gen_task))

let test_exact_lcm () =
  let t p = Task.make_rt ~id:p ~prio:p ~wcet:1 ~period:p () in
  check_int "lcm" 20 (Exact.lcm_periods [ t 4; t 5; t 10 ])

let test_exact_known_schedulable () =
  let tasks =
    [ Task.make_rt ~id:0 ~prio:0 ~wcet:2 ~period:4 ();
      Task.make_rt ~id:1 ~prio:1 ~wcet:2 ~period:8 () ]
  in
  match Exact.simulate tasks with
  | Exact.Schedulable [ r0; r1 ] ->
      check_int "hp response" 2 r0;
      check_int "lp response" 4 r1
  | Exact.Schedulable _ | Exact.Unschedulable _
  | Exact.Hyperperiod_too_large ->
      Alcotest.fail "expected schedulable with two responses"

let test_exact_known_unschedulable () =
  let tasks =
    [ Task.make_rt ~id:0 ~prio:0 ~wcet:3 ~period:4 ();
      Task.make_rt ~id:1 ~prio:1 ~wcet:2 ~period:4 () ]
  in
  match Exact.simulate tasks with
  | Exact.Unschedulable 1 -> ()
  | Exact.Unschedulable id -> Alcotest.failf "wrong victim %d" id
  | Exact.Schedulable _ | Exact.Hyperperiod_too_large ->
      Alcotest.fail "expected unschedulable"

let test_exact_budget () =
  let tasks =
    [ Task.make_rt ~id:0 ~prio:0 ~wcet:1 ~period:9973 ();
      Task.make_rt ~id:1 ~prio:1 ~wcet:1 ~period:10007 () ]
  in
  check_bool "budget respected" true
    (Exact.simulate ~max_hyperperiod:1000 tasks
    = Exact.Hyperperiod_too_large)

let prop_tda_agrees_with_exact =
  (* TDA is exact for synchronous constrained-deadline FP on one core:
     verdicts must agree, and for schedulable sets the TDA bound must
     equal the worst observed response. *)
  Test_util.qtest ~count:150 "TDA = exact oracle" arb_small_core (fun tasks ->
      let tda = Rta.core_rt_schedulable tasks in
      match Exact.simulate tasks with
      | Exact.Hyperperiod_too_large -> true
      | Exact.Unschedulable _ -> not tda
      | Exact.Schedulable worsts ->
          tda
          && List.for_all2
               (fun (t : Task.rt_task) observed ->
                 match rt_response_time ~core:tasks t with
                 | Some bound -> bound = observed
                 | None -> false)
               tasks worsts)

(* ------------------------------------------------------------------ *)
(* Global RTA *)

let gt name wcet period =
  { Global.g_name = name; g_wcet = wcet; g_period = period;
    g_deadline = period }

(* The global RTA on a fresh kernel buffer, whose tally must hold one
   converged verdict per [Some] and one diverged verdict exactly when
   some result is [None]. *)
let global_rta ~n_cores tasks =
  let runs = Rtsched.Guan.runs ~n_cores in
  let resps = Global.response_times ~runs ~n_cores tasks in
  let t = Rtsched.Guan.tally runs in
  let somes = List.length (List.filter Option.is_some resps) in
  let diverged = if List.mem None resps then 1 else 0 in
  if t.converged <> somes || t.diverged <> diverged then
    Alcotest.failf "tally: %d converged, %d diverged for %d Some, %d None"
      t.converged t.diverged somes (List.length resps - somes);
  (resps, t.iterations)

let test_global_single_task () =
  Alcotest.(check (list (option int))) "alone" [ Some 3 ]
    (fst (global_rta ~n_cores:2 [ gt "a" 3 10 ]))

let test_global_fewer_tasks_than_cores () =
  (* With as many cores as tasks nothing ever waits. *)
  let tasks = [ gt "a" 4 10; gt "b" 5 10; gt "c" 6 10 ] in
  Alcotest.(check (list (option int))) "all run immediately"
    [ Some 4; Some 5; Some 6 ]
    (fst (global_rta ~n_cores:3 tasks))

let test_global_uniprocessor_upper_bounds () =
  (* On one core the global analysis must upper-bound the exact
     uniprocessor response times (1, 3, 10). *)
  let tasks = [ gt "a" 1 4; gt "b" 2 6; gt "c" 3 13 ] in
  match fst (global_rta ~n_cores:1 tasks) with
  | [ Some r1; Some r2; Some r3 ] ->
      check_bool "r1" true (r1 >= 1);
      check_bool "r2" true (r2 >= 3);
      check_bool "r3" true (r3 >= 10)
  | _ -> Alcotest.fail "expected three schedulable tasks"

let test_global_unschedulable_cascades () =
  let tasks = [ gt "a" 10 10; gt "b" 10 10; gt "c" 1 10 ] in
  (* Two tasks saturate both cores; the third cannot fit. *)
  match fst (global_rta ~n_cores:2 tasks) with
  | [ Some _; Some _; r3 ] ->
      Alcotest.(check (option int)) "third starves" None r3
  | _ -> Alcotest.fail "unexpected shape"

(* The creep the jump removes: two tasks at 95 % of a core each leave
   the third one tick of progress per plain Eq. 7 step from C = 1000
   up to its response, 19,003 iterations in all. The same response
   from at most 200. *)
let test_global_saturated_creep () =
  let tasks = [ gt "a" 95 100; gt "b" 95 100; gt "s" 1000 30000 ] in
  let expected = [ Some 95; Some 95; Some 20000 ] in
  Alcotest.(check (list (option int))) "= naive reference" expected
    (Hydra_oracle.Naive_global.response_times ~n_cores:2 tasks);
  let resps, iters = global_rta ~n_cores:2 tasks in
  Alcotest.(check (list (option int))) "responses" expected resps;
  check_bool (Printf.sprintf "%d iterations <= 200" iters) true (iters <= 200)

let print_gtasks tasks =
  String.concat "; "
    (List.map
       (fun (t : Global.gtask) ->
         Printf.sprintf "(C=%d T=%d D=%d)" t.g_wcet t.g_period t.g_deadline)
       tasks)

(* The kernel's Guan bound = the reference's sorted top-(M-1) sum, on
   random hp tasks with arbitrary response times, windows and job
   WCETs at M = 1..8. *)
let prop_guan_bound_equals_naive =
  let gen =
    let open QCheck.Gen in
    int_range 1 8 >>= fun n_cores ->
    int_range 0 14 >>= fun n ->
    int_range 1 30 >>= fun job_wcet ->
    int_range job_wcet 2000 >>= fun window ->
    list_repeat n
      (int_range 1 40 >>= fun wcet ->
       int_range wcet 400 >>= fun period ->
       int_range wcet (2 * period) >>= fun resp ->
       return (gt "t" wcet period, resp))
    >|= fun hp -> (n_cores, job_wcet, window, hp)
  in
  let print (n_cores, job_wcet, window, hp) =
    Printf.sprintf "M=%d C=%d x=%d hp=[%s] R=[%s]" n_cores job_wcet window
      (print_gtasks (List.map fst hp))
      (String.concat "; " (List.map (fun (_, r) -> string_of_int r) hp))
  in
  Test_util.qtest ~count:300 "Guan bound = sorted top-(M-1) sum"
    (QCheck.make ~print gen) (fun (n_cores, job_wcet, window, hp) ->
      let n = List.length hp in
      let g = Rtsched.Guan.make n in
      List.iteri
        (fun i ((t : Global.gtask), r) ->
          g.wcet.(i) <- t.g_wcet;
          g.period.(i) <- t.g_period;
          g.resp.(i) <- r)
        hp;
      Rtsched.Guan.bound g ~n ~top:(Array.make (n_cores - 1) 0)
        ~runs:(Rtsched.Guan.runs ~n_cores) ~job_wcet window
      = Hydra_oracle.Naive_global.omega ~n_cores ~job_wcet ~window hp)

(* The plain Eq. 7 loop over [omega] from [max wcet start], and the
   number of times it evaluated [omega]. *)
let plain_fixpoint ~n_cores ~wcet ~limit ~start omega =
  let iters = ref 0 in
  let rec iter x =
    if x > limit then None
    else begin
      incr iters;
      let x' = (omega x / n_cores) + wcet in
      if x' = x then Some x else iter x'
    end
  in
  let r = if wcet > limit then None else iter (max wcet start) in
  (r, !iters)

(* The jumping [Guan.fixpoint] = the plain Eq. 7 loop, value and
   verdict, in no more iterations, with Omega = the Guan bound plus
   RT-core terms added through [Guan.clamped]. The cases lean towards
   the creep the jump removes: job WCETs up to 2000, hp WCETs and RT
   cores near full load, warm starts anywhere in [C, lfp] and limits
   on both sides of the lfp, at M = 1..8 (M = 1 has no top buffer). *)
let prop_jumping_fixpoint_equals_plain =
  let gen =
    let open QCheck.Gen in
    let period c =
      frequency
        [ (1, int_range c (c + (c / 8) + 1)); (2, int_range (2 * c) (12 * c)) ]
    in
    let task =
      int_range 1 400 >>= fun c ->
      period c >>= fun t -> int_range c t >>= fun r -> return (c, t, r)
    in
    let core =
      list_size (int_range 0 2)
        (int_range 1 200 >>= fun c -> period c >>= fun t -> return (c, t))
    in
    int_range 1 8 >>= fun n_cores ->
    int_range 0 14 >>= fun n ->
    int_range 1 2000 >>= fun job_wcet ->
    list_repeat n task >>= fun hp ->
    int_range 0 n_cores >>= fun n_rt ->
    list_repeat n_rt core >>= fun cores ->
    int_range 0 1_000_000 >>= fun pick ->
    return (n_cores, job_wcet, hp, cores, pick)
  in
  let print (n_cores, job_wcet, hp, cores, pick) =
    let pair (c, t) = Printf.sprintf "(%d,%d)" c t in
    Printf.sprintf "M=%d C=%d hp=[%s] cores=[%s] pick=%d" n_cores job_wcet
      (String.concat "; "
         (List.map (fun (c, t, r) -> Printf.sprintf "(%d,%d,R=%d)" c t r) hp))
      (String.concat "; "
         (List.map (fun l -> String.concat "+" (List.map pair l)) cores))
      pick
  in
  Test_util.qtest ~count:300 "jumping fixpoint = plain Eq. 7 loop"
    (QCheck.make ~print gen) (fun (n_cores, job_wcet, hp, cores, pick) ->
      let n = List.length hp in
      let g = Rtsched.Guan.make n in
      List.iteri
        (fun i (c, t, r) ->
          g.wcet.(i) <- c;
          g.period.(i) <- t;
          g.resp.(i) <- r)
        hp;
      let cores =
        List.mapi
          (fun m l ->
            List.mapi
              (fun j (c, t) ->
                Task.make_rt ~id:((m * 3) + j) ~prio:j ~wcet:c ~period:t ())
              l)
          cores
      in
      let top = Array.make (n_cores - 1) 0 in
      let runs = Rtsched.Guan.runs ~n_cores in
      let omega x =
        List.fold_left
          (fun acc core ->
            acc
            + Rtsched.Guan.clamped runs ~job_wcet x
                (Workload.rt_core_workload core x))
          (Rtsched.Guan.bound g ~n ~top ~runs ~job_wcet x)
          cores
      in
      let horizon = 40_000 in
      let lfp, _ =
        plain_fixpoint ~n_cores ~wcet:job_wcet ~limit:horizon ~start:0 omega
      in
      let top_of = Option.value lfp ~default:horizon in
      let start = job_wcet + (pick mod (top_of - job_wcet + 1)) in
      let limits =
        match lfp with
        | Some l -> [ l - 1; l; l + (pick mod 97); horizon ]
        | None -> [ job_wcet + (pick mod (horizon - job_wcet + 1)); horizon ]
      in
      List.for_all
        (fun limit ->
          List.for_all
            (fun start ->
              let plain, plain_iters =
                plain_fixpoint ~n_cores ~wcet:job_wcet ~limit ~start omega
              in
              let before = (Rtsched.Guan.tally runs).iterations in
              let jumped =
                Rtsched.Guan.fixpoint ~start ~runs ~n_cores ~wcet:job_wcet
                  ~limit omega
              in
              let iters = (Rtsched.Guan.tally runs).iterations - before in
              if jumped <> plain || iters > plain_iters then
                QCheck.Test.fail_reportf
                  "limit=%d start=%d: plain %s in %d, jumped %s in %d" limit
                  start
                  (Option.fold ~none:"None" ~some:string_of_int plain)
                  plain_iters
                  (Option.fold ~none:"None" ~some:string_of_int jumped)
                  iters;
              true)
            [ 0; start ])
        limits)

(* A jump one window too far is wrong only when the least fixed point
   sits exactly on the window it skipped. Adding a constant K to Omega
   (a term with no run) moves that point one window at a time, so
   sweeping K in 0..63 puts it on every boundary a run could
   over-claim. Small systems at M = 1..3, from starts near C, with
   Omega's hp part the Guan bound (mask = -1) or an Eq. 8 set's
   [set_bound] (the tasks in [mask]). *)
let prop_jumps_skip_no_fixed_point =
  let gen =
    let open QCheck.Gen in
    int_range 1 3 >>= fun n_cores ->
    int_range 1 60 >>= fun job_wcet ->
    list_size (int_range 1 3)
      (int_range 1 120 >>= fun c ->
       int_range c (3 * c) >>= fun t ->
       int_range c t >>= fun r -> return (c, t, r))
    >>= fun hp ->
    list_size (int_range 0 1)
      (int_range 1 60 >>= fun c ->
       int_range c (2 * c) >>= fun t -> return (c, t))
    >>= fun core ->
    int_range 0 150 >>= fun lead ->
    int_range (-1) 7 >>= fun mask ->
    return (n_cores, job_wcet, hp, core, lead, mask)
  in
  let print (n_cores, job_wcet, hp, core, lead, mask) =
    Printf.sprintf "M=%d C=%d hp=[%s] core=[%s] lead=%d mask=%d" n_cores
      job_wcet
      (String.concat "; "
         (List.map (fun (c, t, r) -> Printf.sprintf "(%d,%d,R=%d)" c t r) hp))
      (String.concat "; "
         (List.map (fun (c, t) -> Printf.sprintf "(%d,%d)" c t) core))
      lead mask
  in
  Test_util.qtest ~count:1000 "jumps skip no fixed point (offset sweep)"
    (QCheck.make ~print gen) (fun (n_cores, job_wcet, hp, core, lead, mask) ->
      let n = List.length hp in
      let g = Rtsched.Guan.make n in
      List.iteri
        (fun i (c, t, r) ->
          g.wcet.(i) <- c;
          g.period.(i) <- t;
          g.resp.(i) <- r)
        hp;
      let core =
        List.mapi
          (fun j (c, t) -> Task.make_rt ~id:j ~prio:j ~wcet:c ~period:t ())
          core
      in
      let set =
        Array.of_list
          (List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init n Fun.id))
      in
      let top = Array.make (n_cores - 1) 0 in
      let runs = Rtsched.Guan.runs ~n_cores in
      let hp_part x =
        if mask < 0 then Rtsched.Guan.bound g ~n ~top ~runs ~job_wcet x
        else
          Rtsched.Guan.set_bound g ~n ~set ~size:(Array.length set) ~runs
            ~job_wcet x
      in
      let start = job_wcet + lead in
      let limit = start + 600 in
      List.for_all
        (fun k ->
          let omega x =
            k
            + Rtsched.Guan.clamped runs ~job_wcet x
                (Workload.rt_core_workload core x)
            + hp_part x
          in
          let plain, _ =
            plain_fixpoint ~n_cores ~wcet:job_wcet ~limit ~start omega
          in
          let jumped =
            Rtsched.Guan.fixpoint ~start ~runs ~n_cores ~wcet:job_wcet ~limit
              omega
          in
          if jumped <> plain then
            QCheck.Test.fail_reportf "K=%d: plain %s, jumped %s" k
              (Option.fold ~none:"None" ~some:string_of_int plain)
              (Option.fold ~none:"None" ~some:string_of_int jumped);
          true)
        (List.init 64 Fun.id))

(* Rta_global on the Guan kernel = the list-based reference
   (test/oracle/naive_global.ml), values and None verdicts, on random
   priority-ordered lists at M = 1..8 (lists shorter than M - 1
   included), loaded at 40-95 % of the M cores so that responses, and
   carry-in increments, grow down the list. *)
let prop_global_equals_naive =
  let gen =
    let open QCheck.Gen in
    int_range 1 8 >>= fun n_cores ->
    int_range 0 14 >>= fun n ->
    int_range 40 95 >>= fun load ->
    list_repeat n
      (int_range 1 30 >>= fun wcet ->
       int_range 70 140 >>= fun jitter ->
       let period = max wcet (wcet * n * jitter / (load * n_cores)) in
       int_range ((wcet + period + 1) / 2) period >>= fun deadline ->
       return { (gt "t" wcet period) with Global.g_deadline = deadline })
    >|= fun tasks -> (n_cores, tasks)
  in
  let print (n_cores, tasks) =
    Printf.sprintf "M=%d [%s]" n_cores (print_gtasks tasks)
  in
  Test_util.qtest ~count:300 "global RTA = naive reference"
    (QCheck.make ~print gen) (fun (n_cores, tasks) ->
      fst (global_rta ~n_cores tasks)
      = Hydra_oracle.Naive_global.response_times ~n_cores tasks)

(* GLOBAL-TMax soundness against the simulator: on tasksets of 2M RT
   and three security tasks at T^max, M = 2..4, no RT or security
   task's simulated response under Global_all (synchronous release)
   exceeds its Rta_global bound. Seed-fixed. *)
let prop_global_bounds_simulation =
  let arb =
    QCheck.make ~print:Test_util.print_taskset
      QCheck.Gen.(
        int_range 2 4 >>= fun n_cores ->
        Test_util.gen_taskset ~n_cores ~n_rt:(2 * n_cores) ~n_sec:3)
  in
  Test_util.qtest ~count:100 ~seed:11 "global RTA bounds simulated responses"
    arb (fun ts ->
      let n_cores = ts.Task.n_cores in
      let gtasks =
        Global.of_taskset ts ~sec_period:(fun s -> s.Task.sec_period_max)
      in
      let resps = fst (global_rta ~n_cores gtasks) in
      QCheck.assume (List.for_all Option.is_some resps);
      let sec_periods = Array.make (Array.length ts.Task.sec) 0 in
      Array.iter
        (fun (s : Task.sec_task) -> sec_periods.(s.sec_id) <- s.sec_period_max)
        ts.Task.sec;
      let built =
        Sim.Scenario.of_taskset ts
          ~rt_assignment:(Test_util.round_robin_assignment ts)
          ~policy:Sim.Policy.Global_all ~sec_periods ()
      in
      let stats =
        Sim.Engine.run ~n_cores ~horizon:3000 built.Sim.Scenario.tasks
      in
      (* sim ids in the priority order of [gtasks] *)
      let sim_ids =
        Array.to_list
          (Array.map
             (fun (t : Task.rt_task) -> built.Sim.Scenario.rt_sim_ids.(t.rt_id))
             (Task.sort_rt_by_priority ts.Task.rt))
        @ Array.to_list
            (Array.map
               (fun (s : Task.sec_task) ->
                 built.Sim.Scenario.sec_sim_ids.(s.sec_id))
               (Task.sort_sec_by_priority ts.Task.sec))
      in
      List.for_all2
        (fun sim_id resp ->
          match resp with
          | None -> false
          | Some bound -> Sim.Metrics.max_response stats ~sim_id <= bound)
        sim_ids resps)

let () =
  Alcotest.run "rtsched"
    [ ( "task",
        [ Alcotest.test_case "make_rt defaults" `Quick test_make_rt_defaults;
          Alcotest.test_case "rejects wcet < 1" `Quick
            test_make_rt_rejects_bad_wcet;
          Alcotest.test_case "rejects deadline > period" `Quick
            test_make_rt_rejects_deadline_gt_period;
          Alcotest.test_case "numeric bounds" `Quick test_bounds;
          Alcotest.test_case "rejects period_max < wcet" `Quick
            test_make_sec_rejects_tight_bound;
          Alcotest.test_case "rejects duplicate priorities" `Quick
            test_taskset_rejects_duplicate_priorities;
          Alcotest.test_case "rate-monotonic order" `Quick
            test_rate_monotonic_order;
          Alcotest.test_case "utilization accounting" `Quick
            test_utilization_accounting ] );
      ( "workload",
        [ Alcotest.test_case "W_nc matches brute force" `Quick
            test_non_carry_in_matches_brute_force;
          Alcotest.test_case "W_nc edge cases" `Quick
            test_non_carry_in_edge_cases;
          Alcotest.test_case "request bound dominates W_nc" `Quick
            test_request_bound_dominates_nc;
          Alcotest.test_case "W_ci formula (Eq. 4)" `Quick
            test_carry_in_formula;
          Alcotest.test_case "W_ci matches brute force" `Quick
            test_carry_in_matches_brute_force;
          Alcotest.test_case "interference clamp (Eq. 3/5)" `Quick
            test_interference_clamp;
          prop_workload_monotone;
          prop_workload_antitone_in_period;
          prop_carry_in_bounds;
          prop_clamped_equals_interference_near_max_time ] );
      ( "rta_uniproc",
        [ Alcotest.test_case "no interference" `Quick test_rta_no_interference;
          Alcotest.test_case "liu-layland example" `Quick
            test_rta_liu_layland_example;
          Alcotest.test_case "unschedulable" `Quick test_rta_unschedulable;
          Alcotest.test_case "exact fit" `Quick
            test_rta_exact_at_full_utilization;
          Alcotest.test_case "core schedulability" `Quick
            test_core_rt_schedulable;
          prop_rta_bounds_simulation ] );
      ( "partition",
        [ Alcotest.test_case "respects TDA" `Quick test_partition_respects_tda;
          Alcotest.test_case "fails when overloaded" `Quick
            test_partition_fails_when_overloaded;
          Alcotest.test_case "single core exact fit" `Quick
            test_partition_single_core_exact_fit;
          Alcotest.test_case "cores sorted by priority" `Quick
            test_cores_of_assignment_sorted;
          prop_partition_heuristics_all_valid ] );
      ( "taskset_io",
        [ Alcotest.test_case "parse rover" `Quick test_io_parse_rover;
          Alcotest.test_case "RM priorities" `Quick
            test_io_rm_priorities_assigned;
          Alcotest.test_case "sec file order" `Quick
            test_io_sec_priority_is_file_order;
          Alcotest.test_case "round trip" `Quick test_io_round_trip;
          prop_io_round_trip_random;
          Alcotest.test_case "errors" `Quick test_io_errors ] );
      ( "exact_oracle",
        [ Alcotest.test_case "lcm" `Quick test_exact_lcm;
          Alcotest.test_case "known schedulable" `Quick
            test_exact_known_schedulable;
          Alcotest.test_case "known unschedulable" `Quick
            test_exact_known_unschedulable;
          Alcotest.test_case "hyperperiod budget" `Quick test_exact_budget;
          prop_tda_agrees_with_exact ] );
      ( "rta_global",
        [ Alcotest.test_case "single task" `Quick test_global_single_task;
          Alcotest.test_case "fewer tasks than cores" `Quick
            test_global_fewer_tasks_than_cores;
          Alcotest.test_case "uniprocessor upper bounds" `Quick
            test_global_uniprocessor_upper_bounds;
          Alcotest.test_case "unschedulable cascades" `Quick
            test_global_unschedulable_cascades;
          Alcotest.test_case "saturated creep" `Quick
            test_global_saturated_creep;
          prop_guan_bound_equals_naive;
          prop_jumping_fixpoint_equals_plain;
          prop_jumps_skip_no_fixed_point;
          prop_global_equals_naive;
          prop_global_bounds_simulation ] ) ]
