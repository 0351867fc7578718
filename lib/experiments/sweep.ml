module Task = Rtsched.Task
module Generator = Taskgen.Generator
module Scheme = Hydra.Scheme

type record = {
  group : int;
  norm_util : float;
  bounds : int array;
  outcomes : (Scheme.t * Scheme.outcome) list;
}

type t = {
  n_cores : int;
  per_group : int;
  records : record list;
}

let bounds_of (ts : Task.taskset) =
  let v = Array.make (Array.length ts.sec) 0 in
  Array.iter (fun s -> v.(s.Task.sec_id) <- s.Task.sec_period_max) ts.sec;
  v

(* Metric-name suffix for a scheme: lowercase, underscores for dashes
   ("HYDRA-TMax" -> "hydra_tmax"), matching Fig5's hydra_c/hydra
   labels. *)
let metric_suffix scheme =
  String.map (function '-' -> '_' | c -> Char.lowercase_ascii c)
    (Scheme.name scheme)

let evaluate_one ?policy ?obs (g : Generator.generated) ~group =
  let ts = g.Generator.taskset in
  let outcomes =
    List.map
      (fun scheme ->
        let outcome =
          Scheme.evaluate ?policy ?obs scheme ts
            ~rt_assignment:g.Generator.rt_assignment
        in
        (match outcome.Scheme.periods with
        | Some ps ->
            let metric = "sweep.selected_period." ^ metric_suffix scheme in
            Array.iter (fun p -> Hydra_obs.sample obs metric p) ps
        | None -> ());
        (scheme, outcome))
      Scheme.all
  in
  { group; norm_util = Task.normalized_utilization ts;
    bounds = bounds_of ts; outcomes }

let run ?policy ?config ?jobs ?obs ~n_cores ~per_group ~seed () =
  Hydra_obs.span obs "sweep.run" @@ fun () ->
  let config =
    Option.value config ~default:(Generator.default_config ~n_cores)
  in
  let rng = Taskgen.Rng.create seed in
  (* Streams are pre-split in linear (group-major) order, so stream i's
     seed — and with it record i — depends only on the parent seed,
     never on worker count or completion order. *)
  let n = config.Generator.util_groups * per_group in
  let streams = Taskgen.Rng.split_n rng n in
  let records =
    Parallel.Pool.map ?obs ?jobs
      (fun i ->
        (* The span runs on the worker domain; the exporter attributes
           it to that domain's trace row. *)
        Hydra_obs.span obs "sweep.item" @@ fun () ->
        let group = i / per_group in
        match Generator.generate config streams.(i) ~group with
        | None ->
            Hydra_obs.incr obs "sweep.tasksets.discarded";
            None
        | Some g ->
            Hydra_obs.incr obs "sweep.tasksets.generated";
            Some (evaluate_one ?policy ?obs g ~group))
      n
  in
  { n_cores; per_group;
    records = List.filter_map Fun.id (Array.to_list records) }

let group_records t ~group = List.filter (fun r -> r.group = group) t.records

let mean_norm_util records =
  Hydra.Metrics.mean (List.map (fun r -> r.norm_util) records)

let outcome_of record ~scheme = List.assoc scheme record.outcomes

let acceptance records ~scheme =
  let accepted =
    List.length
      (List.filter
         (fun r -> (outcome_of r ~scheme).Scheme.schedulable)
         records)
  in
  Hydra.Metrics.acceptance_ratio ~accepted ~total:(List.length records)

let schedulable_periods record ~scheme =
  let o = outcome_of record ~scheme in
  if o.Scheme.schedulable then o.Scheme.periods else None
