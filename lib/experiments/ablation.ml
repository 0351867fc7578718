module Task = Rtsched.Task
module Generator = Taskgen.Generator
module Rng = Taskgen.Rng
module Scheme = Hydra.Scheme

let groups = List.init 10 (fun g -> g)

(* Generate one batch of tasksets per group with a private stream per
   taskset, pre-split in group-major order (same convention as Sweep)
   so the batch is identical for any [jobs]. *)
let generate_batch ?jobs ?obs config ~seed ~per_group =
  let rng = Rng.create seed in
  let n = List.length groups * per_group in
  let streams = Rng.split_n rng n in
  Parallel.Pool.map ?obs ?jobs
    (fun i ->
      let group = i / per_group in
      Option.map
        (fun g -> (group, g))
        (Generator.generate config streams.(i) ~group))
    n
  |> Array.to_list |> List.filter_map Fun.id

let hydra_c_outcome ?policy ?obs (g : Generator.generated) =
  Scheme.evaluate ?policy ?obs Scheme.Hydra_c g.Generator.taskset
    ~rt_assignment:g.Generator.rt_assignment

let distance_of (g : Generator.generated) (o : Scheme.outcome) =
  match o.Scheme.periods with
  | Some periods when o.Scheme.schedulable ->
      Some
        (Hydra.Metrics.normalized_distance_to_bound ~periods
           ~bounds:(Task.period_bounds g.Generator.taskset.Task.sec))
  | Some _ | None -> None

(* An "accepted / mean distance" row from one entry per taskset: its
   distance when the variant accepts it, [None] otherwise. *)
let distance_row label distances =
  let accepted = List.filter_map Fun.id distances in
  [ label; string_of_int (List.length accepted);
    Table_render.float_cell (Hydra.Metrics.mean accepted) ]

let run_carry_in ?jobs ?obs ppf ~seed ~per_group ~n_cores =
  Hydra_obs.span obs "ablation.carry_in" @@ fun () ->
  (* Keep hp-sets small so the exhaustive Eq. 8 stays affordable. *)
  let config =
    { (Generator.default_config ~n_cores) with
      Generator.sec_count = (2, 2 * n_cores) }
  in
  let batch = generate_batch ?jobs ?obs config ~seed ~per_group in
  let evaluate policy =
    Parallel.Pool.map_list ?obs ?jobs
      (fun (_, g) -> hydra_c_outcome ~policy ?obs g)
      batch
  in
  let top = evaluate Hydra.Analysis.Top_delta in
  let exh = evaluate Hydra.Analysis.Exhaustive in
  let distances outcomes =
    List.map2 (fun (_, g) o -> distance_of g o) batch outcomes
  in
  let diverging =
    List.length
      (List.filter
         (fun (a, b) -> a.Scheme.schedulable <> b.Scheme.schedulable)
         (List.combine top exh))
  in
  Table_render.table ppf
    ~title:
      (Printf.sprintf
         "Ablation X1 (M=%d, %d tasksets): carry-in handling in Eq. 8"
         n_cores (List.length batch))
    ~header:[ "policy"; "accepted"; "mean distance" ]
    ~rows:
      [ distance_row "top-delta" (distances top);
        distance_row "exhaustive" (distances exh) ];
  Format.fprintf ppf
    "tasksets where the polynomial bound changes the verdict: %d@." diverging

let run_partition ?jobs ?obs ppf ~seed ~per_group ~n_cores =
  Hydra_obs.span obs "ablation.partition" @@ fun () ->
  let heuristics =
    [ Rtsched.Partition.Best_fit; Rtsched.Partition.First_fit;
      Rtsched.Partition.Worst_fit ]
  in
  let rows =
    List.map
      (fun h ->
        let config =
          { (Generator.default_config ~n_cores) with
            Generator.partition_heuristic = h }
        in
        let batch = generate_batch ?jobs ?obs config ~seed ~per_group in
        let outcomes =
          Parallel.Pool.map_list ?obs ?jobs
            (fun (_, g) -> hydra_c_outcome ?obs g)
            batch
        in
        let accepted =
          List.length (List.filter (fun o -> o.Scheme.schedulable) outcomes)
        in
        [ Rtsched.Partition.heuristic_name h;
          string_of_int (List.length batch); string_of_int accepted;
          Table_render.float_cell
            (Hydra.Metrics.acceptance_ratio ~accepted
               ~total:(List.length batch)) ])
      heuristics
  in
  Table_render.table ppf
    ~title:
      (Printf.sprintf
         "Ablation X2 (M=%d): RT partitioning heuristic vs HYDRA-C acceptance"
         n_cores)
    ~header:[ "heuristic"; "generated"; "accepted"; "ratio" ] ~rows

let run_priority_order ?jobs ?obs ppf ~seed ~per_group ~n_cores =
  Hydra_obs.span obs "ablation.priority_order" @@ fun () ->
  let config = Generator.default_config ~n_cores in
  let batch = generate_batch ?jobs ?obs config ~seed ~per_group in
  let rows =
    List.map
      (fun ordering ->
        distance_row
          (Hydra.Priority_assignment.ordering_name ordering)
          (Parallel.Pool.map_list ?obs ?jobs
             (fun (_, (g : Generator.generated)) ->
               let ts = g.Generator.taskset in
               let sec' =
                 Hydra.Priority_assignment.apply ordering ts.Task.sec
               in
               distance_of g
                 (Scheme.evaluate ?obs Scheme.Hydra_c
                    { ts with Task.sec = sec' }
                    ~rt_assignment:g.Generator.rt_assignment))
             batch))
      Hydra.Priority_assignment.all_orderings
  in
  Table_render.table ppf
    ~title:
      (Printf.sprintf
         "Ablation X3 (M=%d, %d tasksets): security priority order under \
          Algorithm 1"
         n_cores (List.length batch))
    ~header:[ "priority order"; "accepted"; "mean distance" ] ~rows

let run_hydra_variants ?jobs ?obs ppf ~seed ~per_group ~n_cores =
  Hydra_obs.span obs "ablation.hydra_variants" @@ fun () ->
  let config = Generator.default_config ~n_cores in
  let batch = generate_batch ?jobs ?obs config ~seed ~per_group in
  (* Each variant runs once per taskset: its distance when it accepts
     the taskset, and the paired HYDRA-C vs coordinated difference when
     both do. *)
  let results =
    Parallel.Pool.map_list ?obs ?jobs
      (fun (_, (g : Generator.generated)) ->
        let ts = g.Generator.taskset in
        let rt_assignment = g.Generator.rt_assignment in
        let bounds = Task.period_bounds ts.Task.sec in
        let greedy = Scheme.evaluate ?obs Scheme.Hydra ts ~rt_assignment in
        let coordinated =
          match
            Hydra.Baseline_hydra.allocate_coordinated ?obs
              (Hydra.Analysis.make_system ts ~assignment:rt_assignment)
              ts.Task.sec
          with
          | Hydra.Baseline_hydra.Schedulable allocs ->
              Some
                (Hydra.Baseline_hydra.period_vector allocs
                   ~n_sec:(Array.length ts.Task.sec))
          | Hydra.Baseline_hydra.Unschedulable -> None
        in
        let hydra_c = Scheme.evaluate ?obs Scheme.Hydra_c ts ~rt_assignment in
        let paired =
          match (hydra_c.Scheme.periods, coordinated) with
          | Some ours, Some other ->
              Some
                (Hydra.Metrics.mean_normalized_difference ~ours ~other
                   ~bounds)
          | (Some _ | None), _ -> None
        in
        ( distance_of g greedy,
          Option.map
            (fun periods ->
              Hydra.Metrics.normalized_distance_to_bound ~periods ~bounds)
            coordinated,
          distance_of g hydra_c,
          paired ))
      batch
  in
  Table_render.table ppf
    ~title:
      (Printf.sprintf
         "Ablation X5 (M=%d, %d tasksets): HYDRA variants vs HYDRA-C"
         n_cores (List.length batch))
    ~header:[ "variant"; "accepted"; "mean distance" ]
    ~rows:
      [ distance_row "HYDRA (greedy)"
          (List.map (fun (d, _, _, _) -> d) results);
        distance_row "HYDRA-coordinated"
          (List.map (fun (_, d, _, _) -> d) results);
        distance_row "HYDRA-C" (List.map (fun (_, _, d, _) -> d) results) ];
  (* Paired comparison on the tasksets both HYDRA-C and the
     coordinated variant schedule (the honest Fig. 7b-style number). *)
  let paired = List.filter_map (fun (_, _, _, p) -> p) results in
  Format.fprintf ppf
    "paired HYDRA-C vs HYDRA-coordinated difference (positive = HYDRA-C \
     shorter): %s over %d common tasksets@."
    (Table_render.float_cell (Hydra.Metrics.mean paired))
    (List.length paired)

let run_overheads ?jobs ?obs ppf ~seed ~trials =
  Hydra_obs.span obs "ablation.overheads" @@ fun () ->
  let costs = [ (0, 0); (1, 2); (5, 10); (10, 20); (25, 50) ] in
  let rows =
    List.map
      (fun (dispatch_cost, migration_cost) ->
        let overheads =
          { Sim.Engine.dispatch_cost; migration_cost }
        in
        let r = Fig5.run ~seed ~trials ~overheads ?jobs ?obs () in
        [ Printf.sprintf "%d/%d" dispatch_cost migration_cost;
          Table_render.pct r.Fig5.detection_speedup_pct;
          Printf.sprintf "%.2fx" r.Fig5.context_switch_ratio;
          string_of_int
            (r.Fig5.hydra_c.Fig5.rt_deadline_misses
            + r.Fig5.hydra.Fig5.rt_deadline_misses);
          string_of_int
            (r.Fig5.hydra_c.Fig5.sec_deadline_misses
            + r.Fig5.hydra.Fig5.sec_deadline_misses) ])
      costs
  in
  Table_render.table ppf
    ~title:
      (Printf.sprintf
         "Ablation X4 (rover, %d trials): dispatch/migration overhead (ms) \
          vs HYDRA-C advantage"
         trials)
    ~header:
      [ "cost d/m"; "detect speedup"; "cs ratio"; "rt misses"; "sec misses" ]
    ~rows

let run_all ?jobs ?obs ppf ~seed ~per_group ~cores =
  List.iter
    (fun n_cores ->
      run_carry_in ?jobs ?obs ppf ~seed ~per_group ~n_cores;
      run_partition ?jobs ?obs ppf ~seed ~per_group ~n_cores;
      run_priority_order ?jobs ?obs ppf ~seed ~per_group ~n_cores;
      run_hydra_variants ?jobs ?obs ppf ~seed ~per_group ~n_cores)
    cores;
  (* 35 trials as in Fig. 5 — fewer makes the paired speedup noisy. *)
  run_overheads ?jobs ?obs ppf ~seed ~trials:35
