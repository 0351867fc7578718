(* Naive-vs-fast simulator microbenchmark and its machine-readable
   record, BENCH_sim.json (schema "hydra_c.bench_sim/1"). Shared by
   bench/main.exe (full harness) and bench/sim_bench.exe (the CI
   gate). Companion of Analysis_record on the simulation side.

   Three workloads, each run through the naive stepper
   (Hydra_oracle.Naive_sim, test/oracle) and the skip-ahead
   Sim.Engine.run (doc/SIMULATOR.md, which also explains the expected
   speedups):

   - "fig5_rover": the extended rover case study (all four Table-1
     monitor classes, n = 6, M = 2) under the HYDRA-C semi-partitioned
     policy at the designers' period bounds, simulated over the Fig. 5
     horizon, [trials] times. Both engines are event-skipping, so at
     this scale the win is constant-factor only (~2.5-3x).
   - "validation_m4": the Table-3 validation workload, byte-for-byte
     what Experiments.Validation.run simulates — generated tasksets on
     an M=4 platform cycling through all utilization groups, one
     hook-free simulation each at the validation horizon (100 000
     ticks).
   - "campaign_m16": the asymptotic regime — dense high-utilization
     tasksets (groups 7-9) on an M=16 platform (n ~ 100-200 tasks),
     simulated over the Fig. 5 horizon. Here the naive engine's O(n)
     per-event release scan and ready-list sort dominate and the
     skip-ahead engine's bitset walk pulls >= 5x ahead.

   Hook-free runs are timed; equivalence is checked two ways on the
   side: Sim.Metrics.equal_stats over every timed pair of runs, and an
   event-by-event Sim.Event_log comparison (first_divergence) on one
   instrumented run per workload. results_match is the conjunction.

     {
       "schema": "hydra_c.bench_sim/1",
       "trials": T, "horizon": H, "tasksets": N, "n_cores": M, "seed": S,
       "workloads": {
         "fig5_rover":    { "n_tasks", "n_cores", "horizon", "runs",
                            "naive_wall_ns", "fast_wall_ns", "speedup",
                            "decision_events", "events_per_sec_fast",
                            "events_checked", "results_match" },
         "validation_m4": { ... },
         "campaign_m16":  { ... }
       },
       "results_match": bool,      -- conjunction over the workloads
       "speedup_min": float        -- min over the workloads
     }

   Wall times are best-of-[reps] over interleaved naive/fast batches
   (both engines are deterministic, so reps only filter machine
   noise — interleaving cancels clock-frequency drift).

   Scale knobs (environment variables):
     BENCH_SIM_TRIALS    rover simulations timed (default 60)
     BENCH_SIM_HORIZON   rover/campaign horizon, ticks (default 45000)
     BENCH_SIM_TASKSETS  validation tasksets (default 6)
     BENCH_SIM_CORES     validation platform size M (default 4)
     BENCH_SIM_CAMPAIGN_CORES      campaign platform size (default 16)
     BENCH_SIM_CAMPAIGN_TASKSETS   campaign tasksets (default 3)
     BENCH_SIM_SEED      generator seed (default 42)
     BENCH_SIM_REPS      timed repetitions, best-of (default 5) *)

module Task = Rtsched.Task

type workload_row = {
  wr_name : string;
  wr_n_tasks : int;
  wr_n_cores : int;
  wr_horizon : int;
  wr_runs : int;
  wr_naive_wall_ns : int;
  wr_fast_wall_ns : int;
  wr_speedup : float;
  wr_decision_events : int;  (* total over the timed fast runs *)
  wr_events_checked : int;  (* schedule events compared one by one *)
  wr_results_match : bool;
}

type t = {
  sr_trials : int;
  sr_horizon : int;
  sr_tasksets : int;
  sr_n_cores : int;
  sr_seed : int;
  sr_rows : workload_row list;
  sr_results_match : bool;
  sr_speedup_min : float;
}

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some v -> ( match int_of_string_opt v with Some i -> i | None -> default)
  | None -> default

(* One simulation instance: a task list with its platform size. *)
type instance = { in_tasks : Sim.Engine.sim_task list; in_n_cores : int }

let sec_period_bounds ts =
  let bounds = Array.make (Array.length ts.Task.sec) 0 in
  Array.iter (fun s -> bounds.(s.Task.sec_id) <- s.Task.sec_period_max) ts.Task.sec;
  bounds

let rover_instance () =
  let ts = Security.Rover.extended_taskset () in
  let built =
    Sim.Scenario.of_taskset ts
      ~rt_assignment:(Security.Rover.rt_assignment ())
      ~policy:Sim.Policy.Semi_partitioned
      ~sec_periods:(sec_period_bounds ts) ()
  in
  { in_tasks = built.Sim.Scenario.tasks; in_n_cores = ts.Task.n_cores }

(* [group_of count] picks the utilization group of the [count]-th
   generated taskset; Validation.run cycles all groups, the campaign
   workload sticks to the dense top of the range. *)
let synthetic_instances ~n ~n_cores ~group_of ~seed =
  let config = Taskgen.Generator.default_config ~n_cores in
  let streams = Taskgen.Rng.split_n (Taskgen.Rng.create seed) (n * 16) in
  let rec go acc i count =
    if count >= n || i >= Array.length streams then List.rev acc
    else
      let group = group_of count mod config.Taskgen.Generator.util_groups in
      match Taskgen.Generator.generate config streams.(i) ~group with
      | Some g ->
          let ts = g.Taskgen.Generator.taskset in
          let built =
            Sim.Scenario.of_taskset ts
              ~rt_assignment:g.Taskgen.Generator.rt_assignment
              ~policy:Sim.Policy.Semi_partitioned
              ~sec_periods:(sec_period_bounds ts) ()
          in
          go ({ in_tasks = built.Sim.Scenario.tasks; in_n_cores = n_cores } :: acc)
            (i + 1) (count + 1)
      | None -> go acc (i + 1) count
  in
  go [] 0 0

(* The skip-ahead engine ([fast]) or the reference stepper. *)
let simulate ~fast ?hooks ?collect_trace ~n_cores ~horizon tasks =
  if fast then Sim.Engine.run ?hooks ?collect_trace ~n_cores ~horizon tasks
  else
    Hydra_oracle.Naive_sim.run ?hooks ?collect_trace ~n_cores ~horizon tasks

let timed_runs ~fast ~horizon instances =
  let t0 = Hydra_obs.now_ns () in
  let stats =
    List.map
      (fun { in_tasks; in_n_cores } ->
        simulate ~fast ~n_cores:in_n_cores ~horizon in_tasks)
      instances
  in
  (Hydra_obs.now_ns () - t0, stats)

(* Event-by-event equivalence on one instrumented run (hooks + trace
   change the wall clock, so this runs outside the timed section). *)
let events_agree ~horizon { in_tasks; in_n_cores } =
  let capture fast =
    let log = Sim.Event_log.create ~n_cores:in_n_cores in
    let stats =
      simulate ~fast ~hooks:(Sim.Event_log.hooks log)
        ~collect_trace:true ~n_cores:in_n_cores ~horizon in_tasks
    in
    (stats, Sim.Event_log.events log)
  in
  let fast_stats, fast_events = capture true in
  let naive_stats, naive_events = capture false in
  let ok =
    Sim.Event_log.first_divergence fast_events naive_events = None
    && Sim.Metrics.equal_stats fast_stats naive_stats
  in
  (ok, List.length fast_events)

let measure ~name ~horizon ~reps instances =
  let runs = List.length instances in
  (* Naive and fast batches alternate and each keeps its best-of-reps
     wall time: interleaving cancels clock-frequency drift between the
     two measurements, best-of filters scheduler noise (both engines
     are deterministic, so every rep computes identical results). *)
  let naive_ns = ref max_int and fast_ns = ref max_int in
  let naive_stats = ref [] and fast_stats = ref [] in
  for _ = 1 to max 1 reps do
    let ns, nst = timed_runs ~fast:false ~horizon instances in
    let fs, fst = timed_runs ~fast:true ~horizon instances in
    if ns < !naive_ns then naive_ns := ns;
    if fs < !fast_ns then fast_ns := fs;
    naive_stats := nst;
    fast_stats := fst
  done;
  let naive_ns = !naive_ns and fast_ns = !fast_ns in
  let naive_stats = !naive_stats and fast_stats = !fast_stats in
  let stats_ok =
    List.for_all2 Sim.Metrics.equal_stats naive_stats fast_stats
  in
  let events_ok, events_checked =
    match instances with
    | [] -> (true, 0)
    | inst :: _ -> events_agree ~horizon inst
  in
  let decision_events =
    List.fold_left
      (fun acc (s : Sim.Engine.stats) -> acc + s.decision_events)
      0 fast_stats
  in
  { wr_name = name;
    wr_n_tasks =
      (match instances with [] -> 0 | i :: _ -> List.length i.in_tasks);
    wr_n_cores = (match instances with [] -> 0 | i :: _ -> i.in_n_cores);
    wr_horizon = horizon;
    wr_runs = runs;
    wr_naive_wall_ns = naive_ns;
    wr_fast_wall_ns = fast_ns;
    wr_speedup =
      (if fast_ns > 0 then float_of_int naive_ns /. float_of_int fast_ns
       else Float.nan);
    wr_decision_events = decision_events;
    wr_events_checked = events_checked;
    wr_results_match = stats_ok && events_ok }

let replicate n x = List.init n (fun _ -> x)

let run () =
  let trials = getenv_int "BENCH_SIM_TRIALS" 60 in
  let horizon = getenv_int "BENCH_SIM_HORIZON" 45000 in
  let tasksets = getenv_int "BENCH_SIM_TASKSETS" 6 in
  let n_cores = getenv_int "BENCH_SIM_CORES" 4 in
  let campaign_cores = getenv_int "BENCH_SIM_CAMPAIGN_CORES" 16 in
  let campaign_tasksets = getenv_int "BENCH_SIM_CAMPAIGN_TASKSETS" 3 in
  let seed = getenv_int "BENCH_SIM_SEED" 42 in
  let reps = getenv_int "BENCH_SIM_REPS" 5 in
  let rover = rover_instance () in
  let validation =
    (* Mirrors Experiments.Validation.run: group = index mod util_groups,
       horizon 100 000 ticks (its default), hook-free runs. *)
    synthetic_instances ~n:tasksets ~n_cores ~group_of:(fun c -> c) ~seed
  in
  let campaign =
    synthetic_instances ~n:campaign_tasksets ~n_cores:campaign_cores
      ~group_of:(fun c -> 7 + (c mod 3)) ~seed
  in
  let rows =
    [ measure ~name:"fig5_rover" ~horizon ~reps (replicate trials rover);
      measure ~name:"validation_m4" ~horizon:100_000 ~reps validation;
      measure ~name:"campaign_m16" ~horizon ~reps campaign ]
  in
  { sr_trials = trials;
    sr_horizon = horizon;
    sr_tasksets = List.length validation;
    sr_n_cores = n_cores;
    sr_seed = seed;
    sr_rows = rows;
    sr_results_match = List.for_all (fun r -> r.wr_results_match) rows;
    sr_speedup_min =
      List.fold_left (fun acc r -> Float.min acc r.wr_speedup) Float.infinity
        rows }

let to_json (r : t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"hydra_c.bench_sim/1\",\n";
  Printf.bprintf buf "  \"trials\": %d,\n" r.sr_trials;
  Printf.bprintf buf "  \"horizon\": %d,\n" r.sr_horizon;
  Printf.bprintf buf "  \"tasksets\": %d,\n" r.sr_tasksets;
  Printf.bprintf buf "  \"n_cores\": %d,\n" r.sr_n_cores;
  Printf.bprintf buf "  \"seed\": %d,\n" r.sr_seed;
  Buffer.add_string buf "  \"workloads\": {";
  List.iteri
    (fun i row ->
      if i > 0 then Buffer.add_char buf ',';
      let events_per_sec =
        if row.wr_fast_wall_ns > 0 then
          float_of_int row.wr_decision_events
          /. (float_of_int row.wr_fast_wall_ns /. 1e9)
        else Float.nan
      in
      Printf.bprintf buf
        "\n    \"%s\": { \"n_tasks\": %d, \"n_cores\": %d, \"horizon\": %d, \
         \"runs\": %d, \"naive_wall_ns\": %d, \"fast_wall_ns\": %d, \
         \"speedup\": %.4f, \"decision_events\": %d, \
         \"events_per_sec_fast\": %s, \"events_checked\": %d, \
         \"results_match\": %b }"
        row.wr_name row.wr_n_tasks row.wr_n_cores row.wr_horizon row.wr_runs
        row.wr_naive_wall_ns row.wr_fast_wall_ns row.wr_speedup
        row.wr_decision_events
        (Hydra_obs.Snapshot.json_float events_per_sec)
        row.wr_events_checked row.wr_results_match)
    r.sr_rows;
  Buffer.add_string buf "\n  },\n";
  Printf.bprintf buf "  \"results_match\": %b,\n" r.sr_results_match;
  Printf.bprintf buf "  \"speedup_min\": %s\n"
    (Hydra_obs.Snapshot.json_float r.sr_speedup_min);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let write ?(path = "BENCH_sim.json") r =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_json r))

let pp_summary ppf (r : t) =
  Format.fprintf ppf
    "simulator fast path (%d rover trials, horizon %d; %d synthetic \
     tasksets, M=%d, seed %d):@."
    r.sr_trials r.sr_horizon r.sr_tasksets r.sr_n_cores r.sr_seed;
  List.iter
    (fun row ->
      Format.fprintf ppf
        "  %-13s naive %8.2f ms   fast %8.2f ms   speedup %5.2fx   %s@."
        row.wr_name
        (float_of_int row.wr_naive_wall_ns /. 1e6)
        (float_of_int row.wr_fast_wall_ns /. 1e6)
        row.wr_speedup
        (if row.wr_results_match then "results match" else "RESULTS DIFFER"))
    r.sr_rows
