(* The metric catalogue is BENCHMARK.json's: an untraced run reports
   every end-to-end metric, a traced run every per-layer one, with
   value 0 and no samples where the workload does not exercise the
   layer (README.md defines each metric). *)

module Json = Hydra_obs.Json

let load key =
  let doc = Json.parse (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) in
  match Json.get key doc with
  | Json.Arr metrics ->
      List.map
        (fun m ->
          match (Json.get "name" m, Json.get "unit" m) with
          | Json.Str name, Json.Str unit_ -> (name, unit_)
          | _ -> raise (Json.Error ("BENCHMARK.json: bad metric in " ^ key)))
        metrics
  | _ -> raise (Json.Error ("BENCHMARK.json: " ^ key ^ " is not a list"))

let end_to_end () = load "end_to_end"
let per_layer () = load "per_layer"

(* Orders [values] (name -> value, samples) by the catalogue, filling
   the metrics a workload does not exercise. *)
let fill catalogue values =
  List.map
    (fun (name, unit_) ->
      match List.assoc_opt name values with
      | Some (value, samples) -> Metric.v ~samples name unit_ value
      | None -> Metric.na name unit_)
    catalogue

let counter reg name = float_of_int (Hydra_obs.counter_total reg name)

(* Mean of a registry distribution (sum / count), 0 when unrecorded. *)
let dist_mean reg name =
  match
    List.find_opt (fun (d : Hydra_obs.dist_view) -> d.dv_name = name)
      (Hydra_obs.dists reg)
  with
  | Some d when d.dv_count > 0 -> (float_of_int d.dv_sum /. float_of_int d.dv_count, d.dv_count)
  | _ -> (0., 0)

(* The analysis-layer counters every workload reads the same way. *)
let analysis_counters reg ~ops =
  let per_op name = (counter reg name /. float_of_int (max 1 ops), ops) in
  let hits = counter reg "analysis.cache.hit"
  and misses = counter reg "analysis.cache.miss" in
  [ ("analysis.fixpoint.iterations", per_op "analysis.fixpoint.iterations");
    ("analysis.cache.hit_ratio",
     ((if hits +. misses > 0. then hits /. (hits +. misses) else 0.),
      int_of_float (hits +. misses)));
    ("period_selection.search.steps", per_op "period_selection.search.steps");
    ("period_selection.steps_per_task",
     dist_mean reg "period_selection.search.steps_per_task");
    ("rta.uniproc.iterations", per_op "rta.uniproc.iterations");
    ("rta.global.iterations", per_op "rta.global.iterations");
    ("pool.items", (counter reg "pool.items", 1)) ]
