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
(* The pool behind [map]: its worker domains persist between calls *)

let self () = (Domain.self () :> int)

module Ints = Set.Make (Int)

(* [map ~jobs f n] with the domain that ran each item; each item
   spins a little first, so that every domain of a map gets some *)
let map_on ~jobs f n =
  Pool.map ~jobs
    (fun i ->
      for _ = 1 to 20_000 do ignore (Sys.opaque_identity i) done;
      (f i, self ()))
    n

let domains_of results = Ints.of_list (Array.to_list (Array.map snd results))

let test_domains_persist () =
  let seen = ref Ints.empty in
  for round = 1 to 50 do
    let r = map_on ~jobs:2 (fun i -> (round * 100) + i) 16 in
    check int_array "round" (Array.init 16 (fun i -> (round * 100) + i))
      (Array.map fst r);
    seen := Ints.union !seen (domains_of r)
  done;
  (* a domain per call would show up to 51 *)
  Alcotest.(check bool)
    (Printf.sprintf "at most 2 domains in 50 maps (saw %d)"
       (Ints.cardinal !seen))
    true
    (Ints.cardinal !seen <= 2)

let test_nested_map_sequential () =
  let inner i j = (i * 10) + j in
  let r =
    Pool.map ~jobs:2
      (fun i ->
        let outer = self () in
        let nested = map_on ~jobs:2 (inner i) 5 in
        (Array.map fst nested, Ints.elements (domains_of nested), outer))
      4
  in
  Array.iteri
    (fun i (values, domains, outer) ->
      check int_array "nested = sequential" (Array.init 5 (inner i)) values;
      Alcotest.(check (list int)) "nested items on the item's domain"
        [ outer ] domains)
    r

let test_second_domain_while_busy () =
  let started = Atomic.make false and finished = Atomic.make false in
  let other =
    Domain.spawn (fun () ->
        while not (Atomic.get started) do Domain.cpu_relax () done;
        let r = map_on ~jobs:2 (fun i -> i * i) 20 in
        Atomic.set finished true;
        (r, self ()))
  in
  let busy =
    Pool.map ~jobs:2
      (fun i ->
        if i = 0 then begin
          Atomic.set started true;
          while not (Atomic.get finished) do Domain.cpu_relax () done
        end;
        i)
      4
  in
  let r, caller = Domain.join other in
  check int_array "busy map" [| 0; 1; 2; 3 |] busy;
  check int_array "second domain's map = sequential"
    (Array.init 20 (fun i -> i * i)) (Array.map fst r);
  Alcotest.(check (list int)) "ran on the calling domain" [ caller ]
    (Ints.elements (domains_of r))

let test_resize () =
  List.iter
    (fun jobs ->
      for _ = 1 to 5 do
        let n = Ints.cardinal (domains_of (map_on ~jobs (fun i -> i) 40)) in
        Alcotest.(check bool)
          (Printf.sprintf "jobs:%d uses at most %d domains (saw %d)" jobs
             jobs n)
          true (n <= jobs)
      done)
    [ 3; 2; 4; 2 ]

let test_failure_then_reuse () =
  let before = domains_of (map_on ~jobs:2 (fun i -> i) 32) in
  Alcotest.check_raises "item failure reaches caller" (Failure "boom")
    (fun () ->
      ignore
        (Pool.map ~jobs:2
           (fun i -> if i = 13 then failwith "boom" else i)
           64));
  let r = map_on ~jobs:2 (fun i -> i) 64 in
  check int_array "usable after failure" (Array.init 64 Fun.id)
    (Array.map fst r);
  Alcotest.(check bool) "same pool: at most 2 domains before and after" true
    (Ints.cardinal (Ints.union before (domains_of r)) <= 2)

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
          Alcotest.test_case "map_list/map_array" `Quick test_map_list_array;
          Alcotest.test_case "domains persist across maps" `Quick
            test_domains_persist;
          Alcotest.test_case "nested map runs sequentially" `Quick
            test_nested_map_sequential;
          Alcotest.test_case "map from a second domain while busy" `Quick
            test_second_domain_while_busy;
          Alcotest.test_case "resized per jobs" `Quick test_resize;
          Alcotest.test_case "failure then reuse" `Quick
            test_failure_then_reuse ] );
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
