(* Naive-vs-fast analysis microbenchmark and its machine-readable
   record, BENCH_analysis.json (schema "hydra_c.bench_analysis/1").
   Shared by bench/main.exe (full harness) and bench/analysis_bench.exe
   (the CI gate).

   The workload is HYDRA-C period selection (Algorithm 1 + 2 over the
   Eq. 6-8 WCRT analysis) on Table-3 tasksets with a boosted security
   count, run once per carry-in policy through the reference
   implementation (Hydra_oracle.Naive_selection, test/oracle) and once
   through the production Period_selection.select
   (doc/PERFORMANCE.md), on fresh systems each time. Results must be
   bit-identical; the wall-clock ratio is the reported speedup.

     {
       "schema": "hydra_c.bench_analysis/1",
       "tasksets": N, "n_cores": M, "seed": S,
       "policies": {
         "top_delta":  { "naive_wall_ns", "fast_wall_ns",
                         "speedup", "results_match" },
         "exhaustive": { ... }
       },
       "results_match": bool,      -- conjunction over the policies
       "counters": { name: total } -- Hydra_obs counters of the fast
                                      Exhaustive run: must include the
                                      analysis.cache.{hit,miss} and
                                      analysis.prune.* families
                                      (doc/OBSERVABILITY.md)
     }

   Scale knobs (environment variables):
     BENCH_ANALYSIS_TASKSETS  tasksets measured (default 10)
     BENCH_ANALYSIS_CORES     platform size M (default 4)
     BENCH_ANALYSIS_SEED      generator seed (default 42) *)

module Task = Rtsched.Task

type policy_row = {
  pr_name : string;
  pr_naive_wall_ns : int;
  pr_fast_wall_ns : int;
  pr_speedup : float;
  pr_results_match : bool;
}

type t = {
  br_tasksets : int;
  br_n_cores : int;
  br_seed : int;
  br_rows : policy_row list;
  br_results_match : bool;
  br_counters : Hydra_obs.counter_view list;
}

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some v -> ( match int_of_string_opt v with Some i -> i | None -> default)
  | None -> default

(* Mid-to-high utilization groups: low groups schedule trivially and
   underweight the binary search; the top groups mostly fail RT
   partitioning. *)
let gen_tasksets ~n ~n_cores ~seed =
  let config =
    { (Taskgen.Generator.default_config ~n_cores) with
      Taskgen.Generator.sec_count = (6, 9) }
  in
  let streams = Taskgen.Rng.split_n (Taskgen.Rng.create seed) (n * 16) in
  let rec go acc i count =
    if count >= n || i >= Array.length streams then List.rev acc
    else
      let group = 3 + (count mod 3) in
      match Taskgen.Generator.generate config streams.(i) ~group with
      | Some g -> go (g :: acc) (i + 1) (count + 1)
      | None -> go acc (i + 1) count
  in
  go [] 0 0

let select_one ~policy ~fast ?obs (g : Taskgen.Generator.generated) =
  let ts = g.Taskgen.Generator.taskset in
  let sys =
    Hydra.Analysis.make_system ts ~assignment:g.Taskgen.Generator.rt_assignment
  in
  if fast then Hydra.Period_selection.select ~policy ?obs sys ts.Task.sec
  else Hydra_oracle.Naive_selection.select ~policy sys ts.Task.sec

let timed_mode ~policy ~fast ?obs gens =
  let t0 = Hydra_obs.now_ns () in
  let outcomes = List.map (select_one ~policy ~fast ?obs) gens in
  (Hydra_obs.now_ns () - t0, outcomes)

let same_result a b =
  match (a, b) with
  | Hydra.Period_selection.Unschedulable, Hydra.Period_selection.Unschedulable
    ->
      true
  | Hydra.Period_selection.Schedulable xs, Hydra.Period_selection.Schedulable ys
    ->
      List.length xs = List.length ys
      && List.for_all2
           (fun (x : Hydra.Period_selection.assignment)
                (y : Hydra.Period_selection.assignment) ->
             x.sec.Task.sec_id = y.sec.Task.sec_id
             && x.period = y.period && x.resp = y.resp)
           xs ys
  | _ -> false

let run () =
  let tasksets = getenv_int "BENCH_ANALYSIS_TASKSETS" 10 in
  let n_cores = getenv_int "BENCH_ANALYSIS_CORES" 4 in
  let seed = getenv_int "BENCH_ANALYSIS_SEED" 42 in
  let gens = gen_tasksets ~n:tasksets ~n_cores ~seed in
  let exhaustive_obs = Hydra_obs.create () in
  let row (policy, pr_name) =
    let obs =
      if policy = Hydra.Analysis.Exhaustive then Some exhaustive_obs else None
    in
    let naive_ns, naive = timed_mode ~policy ~fast:false gens in
    let fast_ns, fast = timed_mode ~policy ~fast:true ?obs gens in
    { pr_name;
      pr_naive_wall_ns = naive_ns;
      pr_fast_wall_ns = fast_ns;
      pr_speedup =
        (if fast_ns > 0 then float_of_int naive_ns /. float_of_int fast_ns
         else Float.nan);
      pr_results_match = List.for_all2 same_result naive fast }
  in
  let rows =
    List.map row
      [ (Hydra.Analysis.Top_delta, "top_delta");
        (Hydra.Analysis.Exhaustive, "exhaustive") ]
  in
  { br_tasksets = List.length gens;
    br_n_cores = n_cores;
    br_seed = seed;
    br_rows = rows;
    br_results_match = List.for_all (fun r -> r.pr_results_match) rows;
    br_counters = Hydra_obs.counters exhaustive_obs }

let to_json (r : t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"hydra_c.bench_analysis/1\",\n";
  Printf.bprintf buf "  \"tasksets\": %d,\n" r.br_tasksets;
  Printf.bprintf buf "  \"n_cores\": %d,\n" r.br_n_cores;
  Printf.bprintf buf "  \"seed\": %d,\n" r.br_seed;
  Buffer.add_string buf "  \"policies\": {";
  List.iteri
    (fun i row ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf
        "\n    \"%s\": { \"naive_wall_ns\": %d, \"fast_wall_ns\": %d, \
         \"speedup\": %.4f, \"results_match\": %b }"
        row.pr_name row.pr_naive_wall_ns row.pr_fast_wall_ns row.pr_speedup
        row.pr_results_match)
    r.br_rows;
  Buffer.add_string buf "\n  },\n";
  Printf.bprintf buf "  \"results_match\": %b,\n" r.br_results_match;
  Buffer.add_string buf "  \"counters\": {";
  List.iteri
    (fun i (c : Hydra_obs.counter_view) ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf "\n    \"%s\": %d" c.Hydra_obs.cv_name
        c.Hydra_obs.cv_total)
    r.br_counters;
  Buffer.add_string buf "\n  }\n}\n";
  Buffer.contents buf

let write ?(path = "BENCH_analysis.json") r =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_json r))

let pp_summary ppf (r : t) =
  Format.fprintf ppf
    "analysis fast path (%d tasksets, M=%d, seed %d):@." r.br_tasksets
    r.br_n_cores r.br_seed;
  List.iter
    (fun row ->
      Format.fprintf ppf
        "  %-10s naive %8.2f ms   fast %8.2f ms   speedup %5.2fx   %s@."
        row.pr_name
        (float_of_int row.pr_naive_wall_ns /. 1e6)
        (float_of_int row.pr_fast_wall_ns /. 1e6)
        row.pr_speedup
        (if row.pr_results_match then "results match"
         else "RESULTS DIFFER"))
    r.br_rows
