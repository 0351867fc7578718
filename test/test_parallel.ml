(* Parallel.Pool unit tests and the cross-[jobs] determinism contract:
   every sweep-shaped experiment must produce structurally identical
   results for jobs:1 (the plain sequential loop) and jobs:4
   (work-stealing domains). See doc/PARALLELISM.md. *)

module Pool = Parallel.Pool

let check = Alcotest.check
let int_array = Alcotest.(array int)

(* ------------------------------------------------------------------ *)
(* Pool unit tests *)

let test_empty () =
  check int_array "jobs:1" [||] (Pool.map ~jobs:1 (fun i -> i) 0);
  check int_array "jobs:4" [||] (Pool.map ~jobs:4 (fun i -> i) 0)

let test_single () =
  check int_array "jobs:1" [| 7 |] (Pool.map ~jobs:1 (fun i -> i + 7) 1);
  check int_array "jobs:4" [| 7 |] (Pool.map ~jobs:4 (fun i -> i + 7) 1)

let test_negative () =
  Alcotest.check_raises "negative length"
    (Invalid_argument "Pool.map: negative length") (fun () ->
      ignore (Pool.map ~jobs:2 (fun i -> i) (-1)))

let test_slotted_by_index () =
  let expect = Array.init 100 (fun i -> i * i) in
  check int_array "jobs:1" expect (Pool.map ~jobs:1 (fun i -> i * i) 100);
  check int_array "jobs:4" expect (Pool.map ~jobs:4 (fun i -> i * i) 100);
  check int_array "jobs:16" expect (Pool.map ~jobs:16 (fun i -> i * i) 100);
  check int_array "jobs > items" expect
    (Pool.map ~jobs:128 (fun i -> i * i) 100)

let test_exception_propagates () =
  Alcotest.check_raises "worker failure reaches caller"
    (Failure "boom") (fun () ->
      ignore
        (Pool.map ~jobs:4
           (fun i -> if i = 13 then failwith "boom" else i)
           64))

let test_default_jobs () =
  let j = Pool.default_jobs () in
  Alcotest.(check bool) "at least one worker" true (j >= 1)

let test_map_list_array () =
  check
    Alcotest.(list int)
    "map_list order" [ 1; 2; 3; 4; 5 ]
    (Pool.map_list ~jobs:4 (fun x -> x + 1) [ 0; 1; 2; 3; 4 ]);
  check int_array "map_array order" [| 0; 2; 4 |]
    (Pool.map_array ~jobs:4 (fun x -> 2 * x) [| 0; 1; 2 |])

(* ------------------------------------------------------------------ *)
(* Static (persistent) pool *)

let with_static ~jobs f =
  let pool = Pool.Static.create ~jobs in
  Fun.protect ~finally:(fun () -> Pool.Static.shutdown pool) (fun () ->
      f pool)

let test_static_matches_map () =
  let expect = Array.init 200 (fun i -> i * i) in
  List.iter
    (fun jobs ->
      with_static ~jobs (fun pool ->
          check int_array
            (Printf.sprintf "jobs:%d" jobs)
            expect
            (Pool.Static.map pool (fun i -> i * i) 200);
          check int_array
            (Printf.sprintf "jobs:%d one item" jobs)
            [| 0 |]
            (Pool.Static.map pool (fun i -> i * i) 1)))
    [ 1; 2; 4 ]

let test_static_reuse () =
  (* many consecutive maps on one pool: epochs advance, workers park
     and wake each time, results stay slotted by index *)
  with_static ~jobs:4 (fun pool ->
      for round = 1 to 50 do
        let expect = Array.init 37 (fun i -> (round * 1000) + i) in
        check int_array "round" expect
          (Pool.Static.map pool (fun i -> (round * 1000) + i) 37)
      done)

let test_static_empty_and_negative () =
  with_static ~jobs:4 (fun pool ->
      check int_array "empty" [||] (Pool.Static.map pool (fun i -> i) 0);
      Alcotest.check_raises "negative length"
        (Invalid_argument "Pool.Static.map: negative length") (fun () ->
          ignore (Pool.Static.map pool (fun i -> i) (-1))))

let test_static_exception_then_reuse () =
  with_static ~jobs:4 (fun pool ->
      Alcotest.check_raises "worker failure reaches caller"
        (Failure "boom") (fun () ->
          ignore
            (Pool.Static.map pool
               (fun i -> if i = 13 then failwith "boom" else i)
               64));
      (* the pool survives a failed map *)
      check int_array "usable after failure"
        (Array.init 64 (fun i -> i))
        (Pool.Static.map pool (fun i -> i) 64))

let test_static_shutdown () =
  let pool = Pool.Static.create ~jobs:4 in
  Pool.Static.shutdown pool;
  Pool.Static.shutdown pool;
  (* idempotent *)
  Alcotest.check_raises "map after shutdown"
    (Invalid_argument "Pool.Static.map: pool is shut down") (fun () ->
      ignore (Pool.Static.map pool (fun i -> i) 4))

(* ------------------------------------------------------------------ *)
(* RNG stream pre-splitting *)

let test_split_n_matches_split () =
  let a = Taskgen.Rng.create 99 and b = Taskgen.Rng.create 99 in
  let streams = Taskgen.Rng.split_n a 8 in
  Array.iter
    (fun s ->
      check Alcotest.int64 "same stream seed"
        (Taskgen.Rng.bits64 (Taskgen.Rng.split b))
        (Taskgen.Rng.bits64 s))
    streams;
  (* parents advanced identically *)
  check Alcotest.int64 "parent state" (Taskgen.Rng.bits64 b)
    (Taskgen.Rng.bits64 a)

(* ------------------------------------------------------------------ *)
(* Cross-jobs determinism of the experiment layer *)

let structurally_equal name a b =
  Alcotest.(check bool) name true (a = b)

let test_sweep_deterministic () =
  let run jobs =
    Experiments.Sweep.run ~jobs ~n_cores:2 ~per_group:3 ~seed:11 ()
  in
  let seq = run 1 and par = run 4 in
  Alcotest.(check bool)
    "produced records" true
    (List.length seq.Experiments.Sweep.records > 0);
  structurally_equal "sweep jobs:1 = jobs:4" seq par

let test_fig5_deterministic () =
  let run jobs =
    Experiments.Fig5.run ~seed:5 ~trials:3 ~horizon:12000 ~jobs ()
  in
  structurally_equal "fig5 jobs:1 = jobs:4" (run 1) (run 4)

let test_validation_deterministic () =
  let run jobs =
    Experiments.Validation.run ~jobs ~n_cores:2 ~tasksets:6 ~seed:17
      ~horizon:20000 ()
  in
  structurally_equal "validation jobs:1 = jobs:4" (run 1) (run 4)

let () =
  Alcotest.run "parallel"
    [ ( "pool",
        [ Alcotest.test_case "empty input" `Quick test_empty;
          Alcotest.test_case "single item" `Quick test_single;
          Alcotest.test_case "negative length" `Quick test_negative;
          Alcotest.test_case "slotted by index" `Quick test_slotted_by_index;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagates;
          Alcotest.test_case "default jobs" `Quick test_default_jobs;
          Alcotest.test_case "map_list/map_array" `Quick test_map_list_array
        ] );
      ( "static",
        [ Alcotest.test_case "matches map" `Quick test_static_matches_map;
          Alcotest.test_case "reuse across epochs" `Quick test_static_reuse;
          Alcotest.test_case "empty/negative" `Quick
            test_static_empty_and_negative;
          Alcotest.test_case "failure then reuse" `Quick
            test_static_exception_then_reuse;
          Alcotest.test_case "shutdown" `Quick test_static_shutdown ] );
      ( "rng",
        [ Alcotest.test_case "split_n = successive splits" `Quick
            test_split_n_matches_split ] );
      ( "determinism",
        [ Alcotest.test_case "sweep" `Slow test_sweep_deterministic;
          Alcotest.test_case "fig5" `Slow test_fig5_deterministic;
          Alcotest.test_case "validation" `Slow test_validation_deterministic
        ] ) ]
