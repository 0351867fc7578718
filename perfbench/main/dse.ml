(* dse: the design-space sweep behind Figs. 6 and 7 — Table-3 tasksets
   at M = 2 and M = 4, all ten utilization groups, all four schemes,
   default carry-in policy, through Experiments.Sweep.run as the CLI
   calls it. One operation is one taskset evaluated under all four
   schemes; one pass is both sweeps. *)

module Sweep = Experiments.Sweep
module Scheme = Hydra.Scheme
module Generator = Taskgen.Generator
module Task = Rtsched.Task

(* The paper uses 250 tasksets per group; 20 keep a pass near two
   seconds at jobs = 2, so a run holds several passes. *)
let per_group = 20
let core_counts = [ 2; 4 ]
let pin_file = "perfbench/pins/dse-seed42.txt"

let pass ~jobs ~seed =
  List.map (fun n_cores -> Sweep.run ~jobs ~n_cores ~per_group ~seed ()) core_counts

let records sweeps = List.concat_map (fun (s : Sweep.t) -> s.records) sweeps

let bounds_of (ts : Task.taskset) =
  let v = Array.make (Array.length ts.sec) 0 in
  Array.iter (fun s -> v.(s.Task.sec_id) <- s.Task.sec_period_max) ts.sec;
  v

(* A schedulable outcome must carry one period per security task, each
   within [1, T_max]. *)
let record_ok (r : Sweep.record) =
  List.for_all
    (fun (_, (o : Scheme.outcome)) ->
      (not o.schedulable)
      ||
      match o.periods with
      | Some ps ->
          Array.length ps = Array.length r.bounds
          && Array.for_all2 (fun p b -> p >= 1 && p <= b) ps r.bounds
      | None -> false)
    r.outcomes

(* Records of [got] that differ from [reference], position by
   position; every record counts when the lengths differ. *)
let mismatches ~reference got =
  if List.compare_lengths reference got <> 0 then List.length got
  else
    List.fold_left2
      (fun acc a b -> if compare a b = 0 then acc else acc + 1)
      0 reference got

let figures sweeps =
  String.concat ""
    (List.map
       (fun s ->
         let f7 = Experiments.Fig7.of_sweep s in
         Format.asprintf "%a%a%a" Experiments.Fig6.render
           (Experiments.Fig6.of_sweep s) Experiments.Fig7.render_a f7
           Experiments.Fig7.render_b f7)
       sweeps)

(* ------------------------------------------------------------------ *)
(* Traced pass: the public calls Sweep.run makes — generate, then
   Scheme.evaluate for each scheme — with a span around each layer's
   call. *)

let layer = function
  | Scheme.Hydra_c -> "hydra_c.select"
  | Scheme.Hydra | Scheme.Hydra_tmax -> "baseline_hydra"
  | Scheme.Global_tmax -> "baseline_tmax"

let evaluate ~obs (g : Generator.generated) ~group =
  let ts = g.taskset and rt_assignment = g.rt_assignment in
  { Sweep.group; norm_util = Task.normalized_utilization ts;
    bounds = bounds_of ts;
    outcomes =
      List.map
        (fun s ->
          (s, Hydra_obs.span obs (layer s) (fun () ->
                  Scheme.evaluate ?obs s ts ~rt_assignment)))
        Scheme.all }

let traced_sweep ~obs ~jobs ~seed ~discarded n_cores =
  let config = Generator.default_config ~n_cores in
  let n = config.util_groups * per_group in
  let streams = Taskgen.Rng.split_n (Taskgen.Rng.create seed) n in
  let items =
    Hydra_obs.span obs "pool.map" (fun () ->
        Parallel.Pool.map ?obs ~jobs
          (fun i ->
            Hydra_obs.span obs "pool.item" @@ fun () ->
            let group = i / per_group in
            match
              Hydra_obs.span obs "taskgen" (fun () ->
                  Generator.generate config streams.(i) ~group)
            with
            | None ->
                Atomic.incr discarded;
                None
            | Some g -> Some (evaluate ~obs g ~group))
          n)
  in
  { Sweep.n_cores; per_group; records = List.filter_map Fun.id (Array.to_list items) }

let layers =
  [ ("taskgen", "taskgen"); ("hydra_c.select", "hydra_c.select");
    ("baseline_hydra", "baseline_hydra"); ("baseline_tmax", "baseline_tmax") ]

let traced ctx ~reference ~before ~rerun ~gc =
  let reg = Hydra_obs.create () in
  let obs = Some reg in
  let discarded = Atomic.make 0 in
  let t0 = Common.now_ns () in
  let sweeps =
    Hydra_obs.span obs "dse.traced" (fun () ->
        List.map (traced_sweep ~obs ~jobs:ctx.Common.jobs ~seed:ctx.seed ~discarded)
          core_counts)
  in
  let wall = Common.now_ns () - t0 in
  let got = records sweeps in
  let failed = mismatches ~reference got in
  if failed > 0 then
    Printf.eprintf "perfbench: %d traced records differ from the untraced run\n" failed;
  let spans = Common.trace_spans ctx reg in
  let selfs = Spans.self_times spans in
  let maps = Spans.total spans "pool.map" and items = Spans.total spans "pool.item" in
  let jobs = ctx.jobs in
  let domain_ns = Spans.total spans "dse.traced" + ((jobs - 1) * maps) in
  let idle_ns = (jobs * maps) - items in
  let overhead = Common.overhead ~before ~traced:wall ~after:(rerun ()) in
  let ops = List.length got in
  let coverage, uncovered =
    Common.layer_table ~selfs ~layers ~idle_ns ~domain_ns ~overhead ~ops
  in
  let per_op name = (Common.ms (Common.self_of selfs name) /. float_of_int ops, ops) in
  let minor, major, gc_ops = gc in
  let values =
    [ ("taskgen.self_ms", per_op "taskgen");
      ("taskgen.discarded", (float_of_int (Atomic.get discarded), ops + Atomic.get discarded));
      ("hydra_c.select_ms", per_op "hydra_c.select");
      ("baseline_hydra.self_ms", per_op "baseline_hydra");
      ("baseline_tmax.self_ms", per_op "baseline_tmax");
      ("pool.busy_share", (float_of_int items /. float_of_int (jobs * maps), 2));
      ("gc.minor_words_per_op", (minor /. float_of_int gc_ops, gc_ops));
      ("gc.major_collections", (float_of_int major /. float_of_int gc_ops, gc_ops));
      ("trace.overhead", (overhead, 1)); ("trace.coverage", (coverage, 1)) ]
    @ Catalog.analysis_counters reg ~ops
  in
  (ops, max failed uncovered, Catalog.fill (Catalog.per_layer ()) values)

(* ------------------------------------------------------------------ *)

(* Each pass is checked as soon as it ends and only its counts are
   kept, so memory does not grow with the number of passes. Figures
   that differ from the pins fail every taskset of the first pass. *)
let run ctx =
  let expected = 10 * per_group * List.length core_counts in
  let reference = ref None in
  let check_pass () =
    match pass ~jobs:ctx.Common.jobs ~seed:ctx.seed with
    | exception e ->
        Printf.eprintf "perfbench: dse pass raised %s\n" (Printexc.to_string e);
        (expected, expected)
    | sweeps ->
        let got = records sweeps in
        let n = List.length got in
        let bad = List.length (List.filter (fun r -> not (record_ok r)) got) in
        (match !reference with
        | None ->
            reference := Some got;
            if Common.check_pin ctx ~file:pin_file (figures sweeps) then (n, bad) else (n, n)
        | Some reference -> (n, bad + mismatches ~reference got))
  in
  Common.run_passes ctx ~check_pass
    ~traced:(fun ~before ~rerun ~gc ->
      match !reference with
      | None -> failwith "dse: no untraced pass succeeded"
      | Some reference -> traced ctx ~reference ~before ~rerun ~gc)
