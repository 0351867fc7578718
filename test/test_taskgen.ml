(* Tests for the synthetic workload generation substrate: splitmix64
   PRNG, log-uniform sampling, Randfixedsum and the Table-3 taskset
   generator. *)

module Rng = Taskgen.Rng
module Loguniform = Taskgen.Loguniform
module Randfixedsum = Taskgen.Randfixedsum
module Generator = Taskgen.Generator
module Task = Rtsched.Task

let check_int = Test_util.check_int
let check_bool = Test_util.check_bool

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for i = 0 to 99 do
    Alcotest.(check int64)
      (Printf.sprintf "draw %d" i)
      (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  check_bool "different seeds diverge" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_copy_independent () =
  let a = Rng.create 7 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a)
    (Rng.bits64 b);
  ignore (Rng.bits64 a);
  let a' = Rng.bits64 a and b' = Rng.bits64 b in
  check_bool "streams diverge after unequal advances" true (a' <> b')

let test_rng_split_streams_differ () =
  let parent = Rng.create 99 in
  let c1 = Rng.split parent in
  let c2 = Rng.split parent in
  check_bool "children differ" true (Rng.bits64 c1 <> Rng.bits64 c2)

let test_rng_int_bounds () =
  let rng = Rng.create 5 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 7 in
    check_bool "in [0,7)" true (v >= 0 && v < 7)
  done

let test_rng_int_rejects_nonpositive () =
  let rng = Rng.create 5 in
  let raised =
    try ignore (Rng.int rng 0); false with Invalid_argument _ -> true
  in
  check_bool "bound 0 rejected" true raised

let test_rng_int_in_inclusive () =
  let rng = Rng.create 11 in
  let seen_lo = ref false and seen_hi = ref false in
  for _ = 1 to 5_000 do
    let v = Rng.int_in rng 3 5 in
    check_bool "in [3,5]" true (v >= 3 && v <= 5);
    if v = 3 then seen_lo := true;
    if v = 5 then seen_hi := true
  done;
  check_bool "lower endpoint reachable" true !seen_lo;
  check_bool "upper endpoint reachable" true !seen_hi

let test_rng_float_range () =
  let rng = Rng.create 17 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    check_bool "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_int_roughly_uniform () =
  let rng = Rng.create 23 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Rng.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      check_bool
        (Printf.sprintf "bucket %d count %d" i c)
        true
        (abs (c - (n / 10)) < n / 100))
    buckets

let test_rng_shuffle_is_permutation () =
  let rng = Rng.create 31 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i))
    sorted;
  check_bool "actually shuffled" true (a <> Array.init 50 (fun i -> i))

(* ------------------------------------------------------------------ *)
(* Loguniform *)

let test_loguniform_in_range () =
  let rng = Rng.create 41 in
  for _ = 1 to 10_000 do
    let v = Loguniform.sample rng ~lo:10.0 ~hi:1000.0 in
    check_bool "in [10,1000]" true (v >= 10.0 && v <= 1000.0)
  done

let test_loguniform_int_in_range () =
  let rng = Rng.create 43 in
  for _ = 1 to 10_000 do
    let v = Loguniform.sample_int rng ~lo:10 ~hi:1000 in
    check_bool "in [10,1000]" true (v >= 10 && v <= 1000)
  done

let test_loguniform_median_is_geometric_mean () =
  (* For log-uniform on [10, 1000] the median is sqrt(10*1000) = 100,
     i.e., half the mass falls below 100 — very different from the
     uniform distribution's 505. *)
  let rng = Rng.create 47 in
  let n = 50_000 in
  let below = ref 0 in
  for _ = 1 to n do
    if Loguniform.sample rng ~lo:10.0 ~hi:1000.0 < 100.0 then incr below
  done;
  let frac = float_of_int !below /. float_of_int n in
  check_bool
    (Printf.sprintf "median near geometric mean (frac=%.3f)" frac)
    true
    (frac > 0.48 && frac < 0.52)

let test_loguniform_rejects_bad_bounds () =
  let rng = Rng.create 1 in
  let raised =
    try ignore (Loguniform.sample rng ~lo:0.0 ~hi:10.0); false
    with Invalid_argument _ -> true
  in
  check_bool "lo = 0 rejected" true raised

(* ------------------------------------------------------------------ *)
(* Randfixedsum *)

let sum = Array.fold_left ( +. ) 0.0

let test_randfixedsum_exact_sum () =
  let rng = Rng.create 53 in
  for _ = 1 to 200 do
    let v = Randfixedsum.sample rng ~n:8 ~total:2.5 ~lo:0.0 ~hi:1.0 in
    check_int "length" 8 (Array.length v);
    Alcotest.(check (float 1e-6)) "sum" 2.5 (sum v);
    Array.iter (fun x -> check_bool "in [0,1]" true (x >= 0.0 && x <= 1.0)) v
  done

let test_randfixedsum_single () =
  let rng = Rng.create 59 in
  let v = Randfixedsum.sample rng ~n:1 ~total:0.42 ~lo:0.0 ~hi:1.0 in
  Alcotest.(check (float 1e-9)) "n=1" 0.42 v.(0)

let test_randfixedsum_degenerate_range () =
  let rng = Rng.create 61 in
  let v = Randfixedsum.sample rng ~n:4 ~total:2.0 ~lo:0.5 ~hi:0.5 in
  Array.iter (fun x -> Alcotest.(check (float 1e-9)) "pinned" 0.5 x) v

let test_randfixedsum_infeasible () =
  let rng = Rng.create 67 in
  let raised =
    try
      ignore (Randfixedsum.sample rng ~n:3 ~total:4.0 ~lo:0.0 ~hi:1.0);
      false
    with Invalid_argument _ -> true
  in
  check_bool "total > n*hi rejected" true raised

let prop_randfixedsum_valid =
  let arb =
    QCheck.(
      triple (int_range 1 40) (float_bound_inclusive 1.0) (int_range 0 1000))
  in
  Test_util.qtest ~count:200 "randfixedsum sums and bounds" arb
    (fun (n, frac, seed) ->
      let rng = Rng.create seed in
      let total = frac *. float_of_int n in
      let v = Randfixedsum.sample rng ~n ~total ~lo:0.0 ~hi:1.0 in
      abs_float (sum v -. total) < 1e-6
      && Array.for_all (fun x -> x >= -1e-9 && x <= 1.0 +. 1e-9) v)

let test_randfixedsum_component_means () =
  (* Uniformity on the simplex slice: every component has the same
     marginal, so per-position sample means converge to total/n. *)
  let rng = Rng.create 107 in
  let n = 6 and total = 2.4 and draws = 4000 in
  let sums = Array.make n 0.0 in
  for _ = 1 to draws do
    let v = Randfixedsum.sample rng ~n ~total ~lo:0.0 ~hi:1.0 in
    Array.iteri (fun i x -> sums.(i) <- sums.(i) +. x) v
  done;
  let expected = total /. float_of_int n in
  Array.iteri
    (fun i s ->
      let mean = s /. float_of_int draws in
      check_bool
        (Printf.sprintf "component %d mean %.3f near %.3f" i mean expected)
        true
        (abs_float (mean -. expected) < 0.03))
    sums

let test_randfixedsum_not_degenerate () =
  (* The sampler must actually spread mass: components of one draw
     should not all be equal (probability ~0 for a correct sampler). *)
  let rng = Rng.create 71 in
  let v = Randfixedsum.sample rng ~n:10 ~total:3.0 ~lo:0.0 ~hi:1.0 in
  let first = v.(0) in
  check_bool "not all equal" true
    (Array.exists (fun x -> abs_float (x -. first) > 1e-6) v)

(* ------------------------------------------------------------------ *)
(* Generator *)

let config2 = Generator.default_config ~n_cores:2

let test_group_bounds () =
  let lo, hi = Generator.group_bounds config2 0 in
  Alcotest.(check (float 1e-9)) "group 0 lo" 0.02 lo;
  Alcotest.(check (float 1e-9)) "group 0 hi" 0.2 hi;
  let lo9, hi9 = Generator.group_bounds config2 9 in
  Alcotest.(check (float 1e-9)) "group 9 lo" 1.82 lo9;
  Alcotest.(check (float 1e-9)) "group 9 hi" 2.0 hi9

let test_generate_respects_table3 () =
  let rng = Rng.create 73 in
  for group = 0 to 6 do
    match Generator.generate config2 rng ~group with
    | None -> Alcotest.fail "low/medium groups must generate"
    | Some g ->
        let ts = g.Generator.taskset in
        let n_rt = Array.length ts.Task.rt in
        let n_sec = Array.length ts.Task.sec in
        check_bool "rt count" true (n_rt >= 6 && n_rt <= 20);
        check_bool "sec count" true (n_sec >= 4 && n_sec <= 10);
        Array.iter
          (fun (t : Task.rt_task) ->
            check_bool "rt period range" true
              (t.Task.rt_period >= 10 * config2.Generator.ticks_per_ms
              && t.Task.rt_period <= 1000 * config2.Generator.ticks_per_ms);
            check_bool "rt wcet sane" true
              (t.Task.rt_wcet >= 1 && t.Task.rt_wcet <= t.Task.rt_period))
          ts.Task.rt;
        Array.iter
          (fun (s : Task.sec_task) ->
            check_bool "sec period bound range" true
              (s.Task.sec_period_max >= 1500 * config2.Generator.ticks_per_ms
              && s.Task.sec_period_max <= 3000 * config2.Generator.ticks_per_ms))
          ts.Task.sec
  done

let test_generate_rt_schedulable () =
  let rng = Rng.create 79 in
  for group = 0 to 9 do
    match Generator.generate config2 rng ~group with
    | None -> () (* high groups may exhaust attempts; that's fine *)
    | Some g ->
        check_bool
          (Printf.sprintf "group %d RT schedulable" group)
          true
          (Hydra_oracle.Naive_uniproc.partitioned_rt_schedulable g.Generator.taskset
             ~assignment:g.Generator.rt_assignment)
  done

let test_generate_utilization_in_group () =
  let rng = Rng.create 83 in
  for group = 0 to 7 do
    match Generator.generate config2 rng ~group with
    | None -> Alcotest.fail "expected generation"
    | Some g ->
        let lo, hi = Generator.group_bounds config2 group in
        (* WCET rounding perturbs utilization; allow slack. *)
        let u = Task.total_min_utilization g.Generator.taskset in
        check_bool
          (Printf.sprintf "group %d utilization %.3f in [%.3f, %.3f]" group u
             lo hi)
          true
          (u >= lo -. 0.05 && u <= hi +. 0.05)
  done

let test_generate_rm_priorities () =
  let rng = Rng.create 89 in
  match Generator.generate config2 rng ~group:3 with
  | None -> Alcotest.fail "expected generation"
  | Some g ->
      let sorted = Task.sort_rt_by_priority g.Generator.taskset.Task.rt in
      let ok = ref true in
      Array.iteri
        (fun i t ->
          if i > 0 && t.Task.rt_period < sorted.(i - 1).Task.rt_period then
            ok := false)
        sorted;
      check_bool "priority order is rate-monotonic" true !ok

let test_generate_invalid_group () =
  let rng = Rng.create 97 in
  let raised =
    try ignore (Generator.generate config2 rng ~group:10); false
    with Invalid_argument _ -> true
  in
  check_bool "group out of range rejected" true raised

let test_generate_deterministic () =
  let run () =
    let rng = Rng.create 101 in
    match Generator.generate config2 rng ~group:4 with
    | None -> []
    | Some g ->
        Array.to_list g.Generator.taskset.Task.rt
        |> List.map (fun t -> (t.Task.rt_wcet, t.Task.rt_period))
  in
  Alcotest.(check (list (pair int int))) "same seed, same taskset" (run ())
    (run ())

let test_loguniform_degenerate_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 100 do
    Alcotest.(check (float 1e-9)) "lo = hi pins the value" 42.0
      (Loguniform.sample rng ~lo:42.0 ~hi:42.0)
  done;
  check_int "int variant" 42 (Loguniform.sample_int rng ~lo:42 ~hi:42)

let test_generator_gives_up_gracefully () =
  (* An impossible configuration (far more utilization than the cores
     can hold after rounding) must return None, not loop forever. *)
  let config =
    { (Generator.default_config ~n_cores:1) with
      Generator.rt_count = (30, 30); sec_count = (2, 2); max_attempts = 5 }
  in
  let rng = Rng.create 13 in
  check_bool "group 9 on one core eventually gives up or succeeds" true
    (match Generator.generate config rng ~group:9 with
    | Some g ->
        Hydra_oracle.Naive_uniproc.partitioned_rt_schedulable g.Generator.taskset
          ~assignment:g.Generator.rt_assignment
    | None -> true)

(* A canonical dump of what the sweep generates at [seed] on [n_cores]
   cores ([Experiments.Sweep.run]'s streams: one per taskset, split in
   group-major order): every taskset's parameters, target utilization
   and RT assignment, or "none" where generation gave up. *)
let dump_sweep buf ~n_cores ~per_group ~seed =
  let config = Generator.default_config ~n_cores in
  let n = config.Generator.util_groups * per_group in
  let streams = Rng.split_n (Rng.create seed) n in
  for i = 0 to n - 1 do
    let group = i / per_group in
    match Generator.generate config streams.(i) ~group with
    | None -> Printf.bprintf buf "M%d #%d none\n" n_cores i
    | Some g ->
        let ts = g.Generator.taskset in
        Printf.bprintf buf "M%d #%d group %d U %h\n" n_cores i group
          g.Generator.target_utilization;
        Array.iteri
          (fun k (t : Task.rt_task) ->
            Printf.bprintf buf "rt %d C %d T %d D %d prio %d core %d\n"
              t.rt_id t.rt_wcet t.rt_period t.rt_deadline t.rt_prio
              g.Generator.rt_assignment.(k))
          ts.Task.rt;
        Array.iter
          (fun (s : Task.sec_task) ->
            Printf.bprintf buf "sec %d C %d Tmax %d prio %d\n" s.sec_id
              s.sec_wcet s.sec_period_max s.sec_prio)
          ts.Task.sec
  done

(* The 400 seed-42 tasksets of perfbench's dse workload (M = 2 and 4,
   ten groups, 20 per group), digested. A change to the generator or
   the partitioner that moves one parameter or one RT assignment
   changes the digest, on any host. Update it only for an intended
   change of the generated tasksets. *)
let test_sweep_golden_digest () =
  let buf = Buffer.create (1 lsl 19) in
  List.iter
    (fun n_cores -> dump_sweep buf ~n_cores ~per_group:20 ~seed:42)
    [ 2; 4 ];
  Alcotest.(check string) "seed-42 dse tasksets"
    "3a45a059daf39cf6544129d504d72eff"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let () =
  Alcotest.run "taskgen"
    [ ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "copy independent" `Quick
            test_rng_copy_independent;
          Alcotest.test_case "split streams differ" `Quick
            test_rng_split_streams_differ;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int rejects bound <= 0" `Quick
            test_rng_int_rejects_nonpositive;
          Alcotest.test_case "int_in inclusive" `Quick
            test_rng_int_in_inclusive;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "int roughly uniform" `Slow
            test_rng_int_roughly_uniform;
          Alcotest.test_case "shuffle is a permutation" `Quick
            test_rng_shuffle_is_permutation ] );
      ( "loguniform",
        [ Alcotest.test_case "in range" `Quick test_loguniform_in_range;
          Alcotest.test_case "int in range" `Quick
            test_loguniform_int_in_range;
          Alcotest.test_case "median = geometric mean" `Slow
            test_loguniform_median_is_geometric_mean;
          Alcotest.test_case "rejects bad bounds" `Quick
            test_loguniform_rejects_bad_bounds ] );
      ( "randfixedsum",
        [ Alcotest.test_case "exact sum and bounds" `Quick
            test_randfixedsum_exact_sum;
          Alcotest.test_case "n = 1" `Quick test_randfixedsum_single;
          Alcotest.test_case "degenerate range" `Quick
            test_randfixedsum_degenerate_range;
          Alcotest.test_case "infeasible rejected" `Quick
            test_randfixedsum_infeasible;
          Alcotest.test_case "not degenerate" `Quick
            test_randfixedsum_not_degenerate;
          Alcotest.test_case "component means uniform" `Slow
            test_randfixedsum_component_means;
          prop_randfixedsum_valid ] );
      ( "generator",
        [ Alcotest.test_case "group bounds" `Quick test_group_bounds;
          Alcotest.test_case "respects Table 3 ranges" `Quick
            test_generate_respects_table3;
          Alcotest.test_case "RT part schedulable" `Quick
            test_generate_rt_schedulable;
          Alcotest.test_case "utilization in group" `Quick
            test_generate_utilization_in_group;
          Alcotest.test_case "RM priorities" `Quick test_generate_rm_priorities;
          Alcotest.test_case "invalid group rejected" `Quick
            test_generate_invalid_group;
          Alcotest.test_case "deterministic" `Quick
            test_generate_deterministic;
          Alcotest.test_case "loguniform degenerate range" `Quick
            test_loguniform_degenerate_range;
          Alcotest.test_case "generator gives up gracefully" `Quick
            test_generator_gives_up_gracefully;
          Alcotest.test_case "seed-42 sweep golden digest" `Quick
            test_sweep_golden_digest ] ) ]
