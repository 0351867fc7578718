(* Tests for Hydra_obs: exactness of the striped counters under
   Parallel.Pool domains, span nesting through the Chrome-trace
   exporter (with the minimal JSON parser from Test_util, shared with
   test_lint), the zero-allocation no-op path, and the determinism
   contract (instrumentation never changes results). *)

open Test_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Counters *)

let test_counter_aggregation_parallel () =
  (* Every worker bumps shared counters from its own domain; the
     aggregated totals must be exact, not approximate. *)
  let obs_t = Hydra_obs.create () in
  let obs = Some obs_t in
  let n = 1000 in
  let (_ : unit array) =
    Parallel.Pool.map ~jobs:4
      (fun i ->
        Hydra_obs.incr obs "test.ticks";
        Hydra_obs.add obs "test.weight" i;
        Hydra_obs.observe obs "test.sample" i)
      n
  in
  check_int "incr total" n (Hydra_obs.counter_total obs_t "test.ticks");
  check_int "add total" (n * (n - 1) / 2)
    (Hydra_obs.counter_total obs_t "test.weight");
  match Hydra_obs.dists obs_t with
  | [ d ] ->
      Alcotest.(check string) "dist name" "test.sample" d.Hydra_obs.dv_name;
      check_int "dist count" n d.Hydra_obs.dv_count;
      check_int "dist sum" (n * (n - 1) / 2) d.Hydra_obs.dv_sum;
      check_int "dist min" 0 d.Hydra_obs.dv_min;
      check_int "dist max" (n - 1) d.Hydra_obs.dv_max
  | ds -> Alcotest.failf "expected 1 distribution, got %d" (List.length ds)

let test_counter_total_untouched () =
  let obs_t = Hydra_obs.create () in
  check_int "never-touched counter" 0 (Hydra_obs.counter_total obs_t "ghost");
  check_bool "no counters listed" true (Hydra_obs.counters obs_t = [])

(* ------------------------------------------------------------------ *)
(* Spans and the Chrome-trace exporter *)

let test_span_nesting_round_trip () =
  let obs_t = Hydra_obs.create () in
  let obs = Some obs_t in
  let r =
    Hydra_obs.span obs "outer" (fun () ->
        let a = Hydra_obs.span obs "inner" (fun () -> 21) in
        a * 2)
  in
  check_int "span returns the value" 42 r;
  (match Hydra_obs.span_stats obs_t with
  | [ i; o ] ->
      Alcotest.(check string) "inner first (sorted)" "inner"
        i.Hydra_obs.sv_name;
      Alcotest.(check string) "outer second" "outer" o.Hydra_obs.sv_name;
      check_bool "outer contains inner duration" true
        (o.Hydra_obs.sv_total_ns >= i.Hydra_obs.sv_total_ns)
  | l -> Alcotest.failf "expected 2 span stats, got %d" (List.length l));
  (* The export must be valid JSON with both events, and the inner
     event's interval must nest inside the outer one on the same tid —
     that containment is exactly what Perfetto uses to draw stacks. *)
  let json = parse_json (Hydra_obs.chrome_trace obs_t) in
  let events =
    member "traceEvents" json |> as_list
    |> List.filter (fun e -> as_str (member "ph" e) = "X")
  in
  check_int "two X events" 2 (List.length events);
  let find name =
    List.find (fun e -> as_str (member "name" e) = name) events
  in
  let outer = find "outer" and inner = find "inner" in
  let ts e = as_num (member "ts" e)
  and dur e = as_num (member "dur" e)
  and tid e = as_num (member "tid" e) in
  check_bool "same tid" true (tid outer = tid inner);
  check_bool "inner starts after outer" true (ts inner >= ts outer);
  check_bool "inner ends before outer" true
    (ts inner +. dur inner <= ts outer +. dur outer +. 0.001)

let test_span_records_on_exception () =
  let obs_t = Hydra_obs.create () in
  let obs = Some obs_t in
  (try Hydra_obs.span obs "boom" (fun () -> failwith "x") with
  | Failure _ -> ());
  match Hydra_obs.span_stats obs_t with
  | [ s ] ->
      Alcotest.(check string) "span recorded" "boom" s.Hydra_obs.sv_name;
      check_int "once" 1 s.Hydra_obs.sv_count
  | l -> Alcotest.failf "expected 1 span stat, got %d" (List.length l)

let test_chrome_trace_escapes_names () =
  let obs_t = Hydra_obs.create () in
  let obs = Some obs_t in
  Hydra_obs.span obs "weird \"name\"\\with\nstuff" (fun () -> ());
  (* Must stay parseable despite quotes, backslashes and newlines. *)
  let json = parse_json (Hydra_obs.chrome_trace obs_t) in
  let events =
    member "traceEvents" json |> as_list
    |> List.filter (fun e -> as_str (member "ph" e) = "X")
  in
  check_int "one event" 1 (List.length events)

(* ------------------------------------------------------------------ *)
(* No-op path *)

let test_noop_allocates_nothing () =
  (* On None every recording call must stay allocation-free so that
     instrumentation can live in the Eq. 7 fixed-point loop. Counter
     names are static literals and the payloads immediate ints, so the
     minor heap must not move at all across many calls. *)
  let tick = Hydra_obs.incr None
  and weigh = Hydra_obs.add None
  and sample = Hydra_obs.observe None in
  (* warm up (any one-time allocation happens here) *)
  tick "x"; weigh "y" 3; sample "z" 7;
  let before = Gc.minor_words () in
  for i = 0 to 9_999 do
    tick "x";
    weigh "y" i;
    sample "z" i
  done;
  let allocated = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "no minor allocation on the None path" 0.0
    allocated

let test_results_identical_with_and_without_obs () =
  (* The determinism contract: threading a live registry through the
     sweep must not change a single record. *)
  let plain =
    Experiments.Sweep.run ~jobs:2 ~n_cores:2 ~per_group:3 ~seed:11 ()
  in
  let obs_t = Hydra_obs.create () in
  let instrumented =
    Experiments.Sweep.run ~jobs:2 ~obs:obs_t ~n_cores:2 ~per_group:3 ~seed:11
      ()
  in
  check_bool "same records" true (plain = instrumented);
  check_bool "and the registry saw the work" true
    (Hydra_obs.counter_total obs_t "analysis.fixpoint.iterations" > 0)

(* ------------------------------------------------------------------ *)
(* Sim.Engine.run ~obs *)

let test_engine_run_with_obs () =
  let t =
    { Sim.Engine.st_id = 0; st_name = "t"; st_wcet = 2; st_period = 5;
      st_deadline = 5; st_prio = 0; st_core = Some 0; st_offset = 0 }
  in
  let obs_t = Hydra_obs.create () in
  let stats = Sim.Engine.run ~obs:obs_t ~n_cores:1 ~horizon:50 [ t ] in
  check_int "counter matches stats" stats.Sim.Engine.context_switches
    (Hydra_obs.counter_total obs_t "sim.context_switches");
  check_int "busy ticks surfaced" stats.Sim.Engine.busy_ticks
    (Hydra_obs.counter_total obs_t "sim.busy_ticks");
  check_int "one run" 1 (Hydra_obs.counter_total obs_t "sim.runs");
  match Hydra_obs.span_stats obs_t with
  | [ s ] -> Alcotest.(check string) "sim.run span" "sim.run" s.Hydra_obs.sv_name
  | l -> Alcotest.failf "expected 1 span stat, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Histograms *)

module H = Hydra_obs.Histogram

(* The documented oracle: quantile q of the recorded multiset is the
   bucket-rounded rank-ceil(q*n) order statistic, clamped to the exact
   maximum. *)
let oracle vs q =
  let sorted = List.sort Int.compare (List.map (fun v -> max v 0) vs) in
  let n = List.length sorted in
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  let rank = if rank < 1 then 1 else if rank > n then n else rank in
  let v = List.nth sorted (rank - 1) in
  let mx = List.fold_left max 0 sorted in
  min (H.round_up v) mx

let sample_list_arb =
  (* Mixed magnitudes so samples straddle many octaves, plus negatives
     to exercise the clamp-to-0 rule. *)
  QCheck.make
    ~print:QCheck.Print.(list int)
    QCheck.Gen.(
      list_size (int_range 1 300)
        (oneof
           [ int_range (-5) 70; int_range 0 10_000; int_range 0 10_000_000 ]))

let prop_quantile_matches_oracle =
  qtest ~count:300 "quantile = sorted-sample oracle" sample_list_arb (fun vs ->
      let h = H.of_list vs in
      List.for_all
        (fun q -> H.quantile h q = oracle vs q)
        [ 0.01; 0.25; 0.50; 0.90; 0.95; 0.99; 1.0 ])

let prop_quantiles_monotone =
  qtest ~count:300 "p50 <= p95 <= p99 <= max" sample_list_arb (fun vs ->
      let h = H.of_list vs in
      let p50 = H.quantile h 0.50 and p95 = H.quantile h 0.95 in
      let p99 = H.quantile h 0.99 in
      let mx = match H.max_value h with Some m -> m | None -> 0 in
      p50 <= p95 && p95 <= p99 && p99 <= mx)

let test_histogram_exact_below_64 () =
  (* Every value below 64 sits in its own singleton bucket, so all
     quantiles are exact order statistics there. *)
  let vs = [ 5; 5; 9; 13; 21; 34; 55; 63; 0; 1 ] in
  let h = H.of_list vs in
  let sorted = List.sort Int.compare vs in
  List.iteri
    (fun i q ->
      check_int
        (Printf.sprintf "rank %d exact" (i + 1))
        (List.nth sorted i) (H.quantile h q))
    (List.init (List.length vs) (fun i ->
         float_of_int (i + 1) /. float_of_int (List.length vs)))

let test_histogram_basic_stats () =
  let h = H.of_list [ 10; 20; 30 ] in
  check_int "count" 3 (H.count h);
  check_int "sum" 60 (H.sum h);
  check_bool "min" true (H.min_value h = Some 10);
  check_bool "max" true (H.max_value h = Some 30);
  Alcotest.(check (float 1e-9)) "mean" 20.0 (H.mean h);
  let e = H.create () in
  check_bool "empty mean is nan" true (Float.is_nan (H.mean e));
  check_bool "empty min" true (H.min_value e = None);
  check_bool "empty quantile raises" true
    (try ignore (H.quantile e 0.5); false with Invalid_argument _ -> true);
  check_bool "q out of range raises" true
    (try ignore (H.quantile h 1.5); false with Invalid_argument _ -> true)

let test_histogram_merge_order_independent () =
  let a = [ 1; 100; 3_000; 70_000 ] and b = [ 2; 64; 65; 1_000_000 ] in
  let forward = H.of_list (a @ b) and backward = H.of_list (b @ a) in
  let merged = H.of_list a in
  H.merge_into ~into:merged (H.of_list b);
  List.iter
    (fun (name, h) ->
      check_bool (name ^ ": same buckets") true
        (H.nonzero_buckets h = H.nonzero_buckets forward);
      check_int (name ^ ": same count") (H.count forward) (H.count h);
      check_int (name ^ ": same sum") (H.sum forward) (H.sum h))
    [ ("reversed", backward); ("merge_into", merged) ]

let test_striped_recording_matches_sequential () =
  (* The same multiset recorded concurrently from 4 domains must
     aggregate to exactly the sequential histogram: bucket counts add
     commutatively, so interleaving cannot matter. *)
  let n = 2000 in
  let value i = (i * 7919) mod 100_000 in
  let obs_t = Hydra_obs.create () in
  let obs = Some obs_t in
  let (_ : unit array) =
    Parallel.Pool.map ~jobs:4
      (fun i -> Hydra_obs.sample obs "test.lat" (value i))
      n
  in
  let reference = H.of_list (List.init n value) in
  match Hydra_obs.hists obs_t with
  | [ hv ] ->
      Alcotest.(check string) "name" "test.lat" hv.Hydra_obs.hv_name;
      let h = hv.Hydra_obs.hv_hist in
      check_bool "buckets equal sequential" true
        (H.nonzero_buckets h = H.nonzero_buckets reference);
      check_int "count" (H.count reference) (H.count h);
      check_int "sum" (H.sum reference) (H.sum h);
      List.iter
        (fun q ->
          check_int
            (Printf.sprintf "q%.2f" q)
            (H.quantile reference q) (H.quantile h q))
        [ 0.5; 0.95; 0.99; 1.0 ]
  | l -> Alcotest.failf "expected 1 histogram, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Snapshot exporter *)

let test_json_float_non_finite () =
  Alcotest.(check string) "nan" "null" (Hydra_obs.Snapshot.json_float Float.nan);
  Alcotest.(check string) "+inf" "null"
    (Hydra_obs.Snapshot.json_float Float.infinity);
  Alcotest.(check string) "-inf" "null"
    (Hydra_obs.Snapshot.json_float Float.neg_infinity);
  Alcotest.(check string) "finite" "1.5" (Hydra_obs.Snapshot.json_float 1.5)

let test_mean_response_nan_snapshot_regression () =
  (* A task whose first release lies past the horizon finishes no job:
     mean_response is nan and must serialize as null, not bare NaN. *)
  let t =
    { Sim.Engine.st_id = 0; st_name = "late"; st_wcet = 1; st_period = 100;
      st_deadline = 100; st_prio = 0; st_core = Some 0; st_offset = 1000 }
  in
  let stats = Sim.Engine.run ~n_cores:1 ~horizon:50 [ t ] in
  let m = Sim.Metrics.mean_response stats ~sim_id:0 in
  check_bool "mean_response is nan" true (Float.is_nan m);
  Alcotest.(check string) "serializes as null" "null"
    (Hydra_obs.Snapshot.json_float m)

let test_snapshot_schema_and_quantiles () =
  let obs_t = Hydra_obs.create () in
  let obs = Some obs_t in
  Hydra_obs.incr obs "test.runs";
  Hydra_obs.observe obs "test.dist" 7;
  List.iter (Hydra_obs.sample obs "test.lat") [ 3; 14; 159; 2653 ];
  Hydra_obs.span obs "test.span" (fun () -> ());
  let text = Hydra_obs.Snapshot.to_json obs_t in
  let contains_nan =
    let n = String.length text in
    let rec scan i =
      i + 3 <= n && (String.sub text i 3 = "NaN" || scan (i + 1))
    in
    scan 0
  in
  check_bool "no bare NaN anywhere" false contains_nan;
  let json = parse_json text in
  Alcotest.(check string) "schema" Hydra_obs.Snapshot.schema
    (as_str (member "schema" json));
  check_int "counter value" 1
    (int_of_float (as_num (member "test.runs" (member "counters" json))));
  let hist = member "test.lat" (member "histograms" json) in
  check_int "hist count" 4 (int_of_float (as_num (member "count" hist)));
  let q name = int_of_float (as_num (member name (member "quantiles" hist))) in
  let reference = H.of_list [ 3; 14; 159; 2653 ] in
  check_int "p50" (H.quantile reference 0.50) (q "p50");
  check_int "p95" (H.quantile reference 0.95) (q "p95");
  check_int "p99" (H.quantile reference 0.99) (q "p99");
  check_int "max" 2653 (q "max");
  check_bool "quantiles monotone" true
    (q "p50" <= q "p95" && q "p95" <= q "p99" && q "p99" <= q "max");
  let buckets = as_list (member "buckets" hist) in
  check_bool "buckets present" true (buckets <> []);
  let total =
    List.fold_left
      (fun acc b -> acc + int_of_float (as_num (member "count" b)))
      0 buckets
  in
  check_int "bucket counts sum to count" 4 total;
  check_int "span count" 1
    (int_of_float (as_num (member "count" (member "test.span" (member "spans" json)))))

(* ------------------------------------------------------------------ *)
(* Pool metrics *)

let test_pool_workload_counters_only () =
  (* The pool records only what the calls determine — how many maps
     and items — on every path: the sequential loop (jobs 1), spawned
     domains (jobs 4) and a persistent Static pool. Which worker ran
     an item, or for how long, would break the byte-identical across
     --jobs snapshot, so no histogram or span may appear. *)
  let check_counters_only label run =
    let obs_t = Hydra_obs.create () in
    let obs = Some obs_t in
    run obs;
    check_int (label ^ ": pool.maps") 2
      (Hydra_obs.counter_total obs_t "pool.maps");
    check_int (label ^ ": pool.items") 42
      (Hydra_obs.counter_total obs_t "pool.items");
    check_bool (label ^ ": no histograms") true (Hydra_obs.hists obs_t = []);
    check_bool (label ^ ": no spans") true (Hydra_obs.span_stats obs_t = [])
  in
  List.iter
    (fun jobs ->
      check_counters_only (Printf.sprintf "map jobs:%d" jobs) (fun obs ->
          ignore (Parallel.Pool.map ?obs ~jobs (fun i -> i * i) 32);
          ignore (Parallel.Pool.map ?obs ~jobs (fun i -> i) 10)))
    [ 1; 4 ];
  let pool = Parallel.Pool.Static.create ~jobs:2 in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.Static.shutdown pool)
    (fun () ->
      check_counters_only "Static jobs:2" (fun obs ->
          ignore (Parallel.Pool.Static.map ?obs pool (fun i -> i * i) 32);
          ignore (Parallel.Pool.Static.map ?obs pool (fun i -> i) 10)))

(* ------------------------------------------------------------------ *)
(* Multi-domain traces and migration flow arrows *)

let prop_multi_domain_trace_valid =
  qtest ~count:30 "concurrent spans render to valid Chrome JSON"
    QCheck.(pair (int_range 2 4) (int_range 1 60))
    (fun (jobs, n) ->
      let obs_t = Hydra_obs.create () in
      let obs = Some obs_t in
      let (_ : int array) =
        Parallel.Pool.map ?obs ~jobs
          (fun i ->
            Hydra_obs.span obs "outer" (fun () ->
                Hydra_obs.span obs "inner" (fun () -> i * i)))
          n
      in
      let json = parse_json (Hydra_obs.chrome_trace obs_t) in
      let xs =
        member "traceEvents" json |> as_list
        |> List.filter (fun e -> as_str (member "ph" e) = "X")
      in
      (* two spans per item, however the domains interleaved *)
      List.length xs = 2 * n)

(* The migration-forcing scenario from test_sim.ml: two alternating
   pinned hogs squeeze a migrating low-prio global task between the
   cores. *)
let migration_tasks () =
  [ { Sim.Engine.st_id = 0; st_name = "hogA"; st_wcet = 3; st_period = 6;
      st_deadline = 6; st_prio = 0; st_core = Some 0; st_offset = 0 };
    { Sim.Engine.st_id = 1; st_name = "hogB"; st_wcet = 3; st_period = 6;
      st_deadline = 6; st_prio = 1; st_core = Some 1; st_offset = 3 };
    { Sim.Engine.st_id = 2; st_name = "drift"; st_wcet = 6; st_period = 12;
      st_deadline = 12; st_prio = 2; st_core = None; st_offset = 0 } ]

let test_trace_flow_arrows_paired () =
  (* Spans recorded concurrently from pool workers share the trace file
     with the simulated schedule (pid 1); every migration must render
     as a flow-start "s" on the old core paired with exactly one
     flow-finish "f" on the new core, under the same id. *)
  let log = Sim.Event_log.create ~n_cores:2 in
  let stats =
    Sim.Engine.run ~hooks:(Sim.Event_log.hooks log) ~n_cores:2 ~horizon:48
      (migration_tasks ())
  in
  check_bool "scenario migrates" true (stats.Sim.Engine.migrations > 0);
  let obs_t = Hydra_obs.create () in
  let obs = Some obs_t in
  let (_ : unit array) =
    Parallel.Pool.map ?obs ~jobs:4
      (fun i ->
        Hydra_obs.span obs "work" (fun () -> ignore (Sys.opaque_identity i)))
      64
  in
  let extra = Sim.Event_log.chrome_events log ~pid:1 in
  let json = parse_json (Hydra_obs.chrome_trace ~extra obs_t) in
  let events = member "traceEvents" json |> as_list in
  let flow_ids ph =
    events
    |> List.filter (fun e -> as_str (member "ph" e) = ph)
    |> List.map (fun e -> int_of_float (as_num (member "id" e)))
    |> List.sort Int.compare
  in
  let starts = flow_ids "s" and finishes = flow_ids "f" in
  check_int "one flow pair per migration" stats.Sim.Engine.migrations
    (List.length starts);
  check_bool "every start paired with exactly one finish" true
    (starts = finishes);
  let rec all_distinct = function
    | a :: b :: _ when a = b -> false
    | _ :: tl -> all_distinct tl
    | [] -> true
  in
  check_bool "flow ids unique" true (all_distinct starts)

(* ------------------------------------------------------------------ *)
(* Request-scoped tracing *)

let test_trace_ctx_ids () =
  let r = Hydra_obs.Trace_ctx.root () in
  check_int "root span = trace" r.Hydra_obs.Trace_ctx.trace_id
    r.Hydra_obs.Trace_ctx.span_id;
  check_int "root parent 0" 0 r.Hydra_obs.Trace_ctx.parent_id;
  let c = Hydra_obs.Trace_ctx.child r in
  check_int "child keeps trace" r.Hydra_obs.Trace_ctx.trace_id
    c.Hydra_obs.Trace_ctx.trace_id;
  check_int "child parent = root span" r.Hydra_obs.Trace_ctx.span_id
    c.Hydra_obs.Trace_ctx.parent_id;
  check_bool "child span fresh" true
    (c.Hydra_obs.Trace_ctx.span_id <> r.Hydra_obs.Trace_ctx.span_id);
  let g = Hydra_obs.Trace_ctx.child c in
  check_int "grandchild parent = child span" c.Hydra_obs.Trace_ctx.span_id
    g.Hydra_obs.Trace_ctx.parent_id;
  check_int "grandchild keeps trace" r.Hydra_obs.Trace_ctx.trace_id
    g.Hydra_obs.Trace_ctx.trace_id

let test_trace_span_chrome_content () =
  let obs_t = Hydra_obs.create () in
  let obs = Some obs_t in
  let root = Hydra_obs.Trace_ctx.root () in
  let ctx = Some root in
  let child = Hydra_obs.Trace_ctx.child root in
  let v =
    Hydra_obs.trace_span obs ctx "server.request" (fun () ->
        Hydra_obs.flow_begin obs ctx "server.dispatch";
        Hydra_obs.flow_end obs ctx "server.dispatch";
        Hydra_obs.trace_span obs (Some child) "server.select" (fun () -> 17))
  in
  check_int "trace_span returns the value" 17 v;
  check_int "4 trace events" 4 (Hydra_obs.trace_count obs_t);
  let json = parse_json (Hydra_obs.chrome_trace obs_t) in
  let events = member "traceEvents" json |> as_list in
  let requests =
    List.filter
      (fun e ->
        (try as_str (member "cat" e) = "request" with _ -> false)
        && as_str (member "ph" e) = "X")
      events
  in
  check_int "two request spans" 2 (List.length requests);
  let find name =
    List.find (fun e -> as_str (member "name" e) = name) requests
  in
  let arg e k = int_of_float (as_num (member k (member "args" e))) in
  let rq = find "server.request" and sel = find "server.select" in
  check_int "shared trace id" (arg rq "trace") (arg sel "trace");
  check_int "root trace id" root.Hydra_obs.Trace_ctx.trace_id (arg rq "trace");
  check_int "child parented under root" (arg rq "span") (arg sel "parent");
  let flows ph =
    List.filter
      (fun e ->
        as_str (member "ph" e) = ph
        && (try as_str (member "cat" e) = "request" with _ -> false))
      events
  in
  (match (flows "s", flows "f") with
  | [ s ], [ f ] ->
      check_int "flow id = trace id" root.Hydra_obs.Trace_ctx.trace_id
        (int_of_float (as_num (member "id" s)));
      check_int "paired under one id"
        (int_of_float (as_num (member "id" s)))
        (int_of_float (as_num (member "id" f)))
  | s, f ->
      Alcotest.failf "expected one s/f flow pair, got %d/%d" (List.length s)
        (List.length f));
  (* trace_emit with explicit timing lands with the given interval *)
  Hydra_obs.trace_emit obs ctx "server.whole" ~start_ns:1_000 ~dur_ns:2_000;
  check_int "emit recorded" 5 (Hydra_obs.trace_count obs_t)

let test_trace_noops_without_ctx_or_obs () =
  let obs_t = Hydra_obs.create () in
  let ctx = Some (Hydra_obs.Trace_ctx.root ()) in
  check_int "no ctx: f still runs" 3
    (Hydra_obs.trace_span (Some obs_t) None "x" (fun () -> 3));
  check_int "no obs: f still runs" 4
    (Hydra_obs.trace_span None ctx "x" (fun () -> 4));
  Hydra_obs.flow_begin (Some obs_t) None "x";
  Hydra_obs.flow_end None ctx "x";
  check_int "nothing recorded" 0 (Hydra_obs.trace_count obs_t)

let test_tracing_never_touches_snapshots () =
  (* The acceptance gate in miniature: the same metric workload, with
     and without request tracing, serializes to the same snapshot bytes
     — trace events live only in the Chrome exporter. *)
  let workload obs =
    Hydra_obs.incr obs "test.runs";
    Hydra_obs.sample obs "test.lat" 42
  in
  let plain = Hydra_obs.create () in
  workload (Some plain);
  let traced = Hydra_obs.create () in
  let ctx = Some (Hydra_obs.Trace_ctx.root ()) in
  Hydra_obs.trace_span (Some traced) ctx "server.request" (fun () ->
      workload (Some traced));
  Hydra_obs.flow_begin (Some traced) ctx "server.dispatch";
  Hydra_obs.flow_end (Some traced) ctx "server.dispatch";
  check_bool "traces recorded" true (Hydra_obs.trace_count traced > 0);
  Alcotest.(check string) "snapshot bytes identical"
    (Hydra_obs.Snapshot.to_json plain)
    (Hydra_obs.Snapshot.to_json traced);
  check_bool "no span aggregates either" true (Hydra_obs.span_stats traced = [])

let test_one_event_store () =
  (* Plain spans, request spans and a flow pair, interleaved: the one
     store renders each exactly once, every kind in its own shape. *)
  let obs_t = Hydra_obs.create () in
  let obs = Some obs_t in
  let root : Hydra_obs.Trace_ctx.t = Hydra_obs.Trace_ctx.root () in
  let ctx = Some root in
  let child = Hydra_obs.Trace_ctx.child root in
  Hydra_obs.span obs "outer" (fun () ->
      Hydra_obs.trace_span obs ctx "server.request" (fun () ->
          Hydra_obs.span obs "inner" (fun () ->
              Hydra_obs.flow_begin obs ctx "server.dispatch";
              Hydra_obs.flow_end obs ctx "server.dispatch";
              Hydra_obs.trace_span obs (Some child) "server.select" ignore)));
  check_int "trace_count counts request events only" 4
    (Hydra_obs.trace_count obs_t);
  let events =
    member "traceEvents" (parse_json (Hydra_obs.chrome_trace obs_t))
    |> as_list
    |> List.filter (fun e -> as_str (member "ph" e) <> "M")
  in
  let has_args = function
    | Obj kvs -> List.mem_assoc "args" kvs
    | _ -> false
  in
  Alcotest.(check (list (pair string string))) "each event once"
    [ ("inner", "X"); ("outer", "X"); ("server.dispatch", "f");
      ("server.dispatch", "s"); ("server.request", "X");
      ("server.select", "X") ]
    (List.sort compare
       (List.map
          (fun e -> (as_str (member "name" e), as_str (member "ph" e)))
          events));
  List.iter
    (fun e ->
      let name = as_str (member "name" e) and cat = as_str (member "cat" e) in
      match name with
      | "outer" | "inner" ->
          Alcotest.(check string) (name ^ " cat") "span" cat;
          check_bool (name ^ " has no args") false (has_args e)
      | "server.request" | "server.select" ->
          let c = if name = "server.request" then root else child in
          let arg k = int_of_float (as_num (member k (member "args" e))) in
          Alcotest.(check string) (name ^ " cat") "request" cat;
          check_int (name ^ " trace") c.trace_id (arg "trace");
          check_int (name ^ " span") c.span_id (arg "span");
          check_int (name ^ " parent") c.parent_id (arg "parent")
      | _ ->
          Alcotest.(check string) "flow cat" "request" cat;
          check_int "flow id = trace id" root.trace_id
            (int_of_float (as_num (member "id" e))))
    events

(* ------------------------------------------------------------------ *)
(* Flight recorder *)

module F = Hydra_obs.Flight

let test_flight_wraparound () =
  let f = F.create ~capacity:8 () in
  check_int "capacity rounded" 8 (F.capacity f);
  let tid = F.intern f "t0" in
  check_int "intern is stable" tid (F.intern f "t0");
  for i = 0 to 19 do
    F.record f ~ts:(i * 10) ~kind:F.Reply ~tenant:tid ~a:i ~b:0
  done;
  check_int "recorded counts everything" 20 (F.recorded f);
  let lines =
    String.split_on_char '\n' (F.dump f)
    |> List.filter (fun l -> l <> "")
  in
  (match lines with
  | header :: events ->
      let h = parse_json header in
      Alcotest.(check string) "schema" F.schema (as_str (member "schema" h));
      check_int "capacity" 8 (int_of_float (as_num (member "capacity" h)));
      check_int "recorded" 20 (int_of_float (as_num (member "recorded" h)));
      check_int "dumped" 8 (int_of_float (as_num (member "dumped" h)));
      check_int "8 surviving events" 8 (List.length events);
      List.iteri
        (fun i line ->
          let e = parse_json line in
          let seq = 12 + i in
          check_int "oldest-first seq" seq
            (int_of_float (as_num (member "seq" e)));
          check_int "ts survived the wrap" (seq * 10)
            (int_of_float (as_num (member "ts_ns" e)));
          Alcotest.(check string) "kind" "reply" (as_str (member "kind" e));
          Alcotest.(check string) "tenant name resolved" "t0"
            (as_str (member "tenant" e)))
        events
  | [] -> Alcotest.fail "empty dump")

let test_flight_dump_deterministic () =
  (* Explicit timestamps make the dump a pure function of the recorded
     sequence: two dumps (and a fresh identically-fed ring) agree
     byte-for-byte. *)
  let feed () =
    let f = F.create ~capacity:16 () in
    let a = F.intern f "alpha" and b = F.intern f "be \"ta\"" in
    List.iteri
      (fun i (k, t) -> F.record f ~ts:(1000 + i) ~kind:k ~tenant:t ~a:i ~b:(-i))
      [ (F.Accept, -1); (F.Decode, a); (F.Coalesce, a); (F.Shard, b);
        (F.Select, b); (F.Reply, a); (F.Slow, -1); (F.Error, -1) ];
    f
  in
  let f = feed () in
  Alcotest.(check string) "dump is stable" (F.dump f) (F.dump f);
  Alcotest.(check string) "dump is a function of the sequence" (F.dump f)
    (F.dump (feed ()));
  match
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (F.dump f))
    |> List.map parse_json
  with
  | _header :: events ->
      Alcotest.(check (list string)) "kind names in recording order"
        [ "accept"; "decode"; "coalesce"; "shard"; "select"; "reply"; "slow";
          "error" ]
        (List.map (fun e -> as_str (member "kind" e)) events)
  | [] -> Alcotest.fail "empty dump"

let prop_flight_concurrent_writers =
  qtest ~count:20 "concurrent writers never lose or tear events"
    QCheck.(pair (int_range 2 4) (int_range 1 200))
    (fun (jobs, per_domain) ->
      let f = F.create ~capacity:64 () in
      let tid = F.intern f "t" in
      let (_ : unit array) =
        Parallel.Pool.map ~jobs
          (fun i -> F.record f ~ts:i ~kind:F.Accept ~tenant:tid ~a:i ~b:0)
          (jobs * per_domain)
      in
      let total = jobs * per_domain in
      let lines =
        String.split_on_char '\n' (F.dump f)
        |> List.filter (fun l -> l <> "")
      in
      F.recorded f = total
      && List.length lines = 1 + min total 64
      && List.for_all
           (fun l ->
             let e = parse_json l in
             try as_str (member "kind" e) = "accept" with _ -> true)
           (List.tl lines))

(* ------------------------------------------------------------------ *)
(* Rate-limited logging *)

let log_to_buffer ?rate_per_s ?burst () =
  let b = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer b in
  (b, fmt, Hydra_obs.Log.create ?rate_per_s ?burst ~out:fmt ())

let test_log_line_format () =
  let b, fmt, log = log_to_buffer ~rate_per_s:0 () in
  Hydra_obs.Log.log log "listening"
    [ ("socket", "/tmp/x.sock"); ("mode", "warm start"); ("q", {|say "hi"|}) ];
  Format.pp_print_flush fmt ();
  Alcotest.(check string) "structured line, values quoted as needed"
    "[hydra] event=listening socket=/tmp/x.sock mode=\"warm start\" \
     q=\"say \\\"hi\\\"\"\n"
    (Buffer.contents b);
  check_int "emitted" 1 (Hydra_obs.Log.emitted log)

let test_log_rate_limit () =
  let b, fmt, log = log_to_buffer ~rate_per_s:1 ~burst:2 () in
  for i = 1 to 10 do
    Hydra_obs.Log.log log "tick" [ ("i", string_of_int i) ]
  done;
  Format.pp_print_flush fmt ();
  check_int "burst emitted" 2 (Hydra_obs.Log.emitted log);
  check_int "rest suppressed" 8 (Hydra_obs.Log.suppressed log);
  (* after the bucket refills, the next line reports what was dropped *)
  Unix.sleepf 1.2;
  Buffer.clear b;
  Hydra_obs.Log.log log "tick" [ ("i", "11") ];
  Format.pp_print_flush fmt ();
  check_int "refilled token emitted" 3 (Hydra_obs.Log.emitted log);
  check_int "suppression reported and reset" 0 (Hydra_obs.Log.suppressed log);
  Alcotest.(check string) "line carries suppressed count"
    "[hydra] event=tick suppressed=8 i=11\n" (Buffer.contents b)

let test_snapshot_byte_identical_across_jobs () =
  (* The CI gate in miniature: the same workload instrumented at
     jobs=1 and jobs=4 must serialize to the very same bytes. *)
  let snapshot jobs =
    let obs_t = Hydra_obs.create () in
    let (_ : Experiments.Sweep.t) =
      Experiments.Sweep.run ~jobs ~obs:obs_t ~n_cores:2 ~per_group:3 ~seed:11 ()
    in
    let (_ : Experiments.Validation.result) =
      Experiments.Validation.run ~jobs ~obs:obs_t ~n_cores:2 ~tasksets:6
        ~seed:11 ()
    in
    Hydra_obs.Snapshot.to_json obs_t
  in
  let s1 = snapshot 1 and s4 = snapshot 4 in
  Alcotest.(check string) "snapshots byte-identical" s1 s4

let () =
  Alcotest.run "obs"
    [ ( "counters",
        [ Alcotest.test_case "parallel aggregation exact" `Quick
            test_counter_aggregation_parallel;
          Alcotest.test_case "untouched counter is 0" `Quick
            test_counter_total_untouched ] );
      ( "spans",
        [ Alcotest.test_case "nesting round-trips to Chrome JSON" `Quick
            test_span_nesting_round_trip;
          Alcotest.test_case "recorded on exception" `Quick
            test_span_records_on_exception;
          Alcotest.test_case "names escaped in JSON" `Quick
            test_chrome_trace_escapes_names ] );
      ( "no-op",
        [ Alcotest.test_case "allocates nothing" `Quick
            test_noop_allocates_nothing;
          Alcotest.test_case "results identical with/without obs" `Quick
            test_results_identical_with_and_without_obs ] );
      ( "sim-metrics",
        [ Alcotest.test_case "engine run with obs" `Quick
            test_engine_run_with_obs ] );
      ( "histograms",
        [ prop_quantile_matches_oracle;
          prop_quantiles_monotone;
          Alcotest.test_case "exact below 64" `Quick
            test_histogram_exact_below_64;
          Alcotest.test_case "basic stats + errors" `Quick
            test_histogram_basic_stats;
          Alcotest.test_case "merge order-independent" `Quick
            test_histogram_merge_order_independent;
          Alcotest.test_case "striped = sequential" `Quick
            test_striped_recording_matches_sequential ] );
      ( "pool-metrics",
        [ Alcotest.test_case "pool records workload counters only" `Quick
            test_pool_workload_counters_only ] );
      ( "trace",
        [ prop_multi_domain_trace_valid;
          Alcotest.test_case "migration flow arrows paired" `Quick
            test_trace_flow_arrows_paired ] );
      ( "tracing",
        [ Alcotest.test_case "context ids parent-link" `Quick
            test_trace_ctx_ids;
          Alcotest.test_case "spans + flows in Chrome JSON" `Quick
            test_trace_span_chrome_content;
          Alcotest.test_case "no-ops without ctx or obs" `Quick
            test_trace_noops_without_ctx_or_obs;
          Alcotest.test_case "never touches snapshots" `Quick
            test_tracing_never_touches_snapshots;
          Alcotest.test_case "one store, each event once" `Quick
            test_one_event_store ] );
      ( "flight",
        [ Alcotest.test_case "ring wraparound keeps the tail" `Quick
            test_flight_wraparound;
          Alcotest.test_case "dump deterministic" `Quick
            test_flight_dump_deterministic;
          prop_flight_concurrent_writers ] );
      ( "log",
        [ Alcotest.test_case "line format + quoting" `Quick
            test_log_line_format;
          Alcotest.test_case "token bucket limits and reports" `Slow
            test_log_rate_limit ] );
      ( "snapshot",
        [ Alcotest.test_case "json_float maps non-finite to null" `Quick
            test_json_float_non_finite;
          Alcotest.test_case "mean_response nan regression" `Quick
            test_mean_response_nan_snapshot_regression;
          Alcotest.test_case "schema, quantiles, buckets" `Quick
            test_snapshot_schema_and_quantiles;
          Alcotest.test_case "byte-identical across jobs" `Quick
            test_snapshot_byte_identical_across_jobs ] ) ]
