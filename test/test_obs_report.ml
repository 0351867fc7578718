(* Tests for Obs_report, the library half of the `hydra_c obs-report`
   subcommand: loading snapshots, quantiles recomputed from serialized
   buckets, the diff / percent / regression math, and rendering. *)

open Test_util
module R = Hydra_obs.Report
module H = Hydra_obs.Histogram

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let has_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Two handwritten full snapshots: [full_b] changes a, drops b and the
   whole histogram section, adds c, doubles the distribution. *)
let full_a =
  {|{"schema":"hydra_c.metrics/1","counters":{"a":10,"b":5},"dists":{"d":{"count":2,"sum":10,"min":3,"max":7,"mean":5.0}},"histograms":{"h":{"count":3,"sum":30,"min":5,"max":15,"mean":10.0,"buckets":[{"le":5,"count":1},{"le":10,"count":1},{"le":15,"count":1}]}},"spans":{"s":{"count":4}}}|}

let full_b =
  {|{"schema":"hydra_c.metrics/1","counters":{"a":12,"c":1},"dists":{"d":{"count":4,"sum":40,"min":3,"max":17,"mean":10.0}},"histograms":{},"spans":{"s":{"count":4}}}|}

(* ------------------------------------------------------------------ *)
(* Loading *)

let test_load_full_snapshot () =
  let s = R.of_string full_a in
  check_bool "counters sorted" true (s.R.counters = [ ("a", 10); ("b", 5) ]);
  (match s.R.dists with
  | [ ("d", d) ] ->
      check_int "count" 2 d.R.d_count;
      check_int "sum" 10 d.R.d_sum;
      check_int "min" 3 d.R.d_min;
      check_int "max" 7 d.R.d_max
  | _ -> Alcotest.fail "expected exactly dist d");
  (match s.R.hists with
  | [ ("h", h) ] ->
      check_int "count" 3 h.R.h_count;
      check_bool "buckets ascending" true
        (h.R.h_buckets = [ (5, 1); (10, 1); (15, 1) ])
  | _ -> Alcotest.fail "expected exactly hist h");
  check_bool "span counts" true (s.R.spans = [ ("s", 4) ])

let test_load_errors () =
  check_bool "missing file is Error" true
    (Result.is_error (R.load "/nonexistent/hydra_c_obs_report.json"));
  check_bool "unknown schema raises" true
    (try
       ignore (R.of_string {|{"schema":"bogus/9"}|});
       false
     with Hydra_obs.Json.Error _ -> true);
  (* the retired delta schema is an unknown schema, and a JSONL file
     is not one JSON document *)
  check_bool "delta line raises" true
    (try
       ignore (R.of_string {|{"schema":"hydra_c.metrics_delta/1","seq":0}|});
       false
     with Hydra_obs.Json.Error _ -> true);
  check_bool "two snapshots in one file raise" true
    (try
       ignore (R.of_string (full_a ^ "\n" ^ full_b ^ "\n"));
       false
     with Hydra_obs.Json.Error _ -> true);
  check_bool "garbage raises" true
    (try
       ignore (R.of_string "not json at all");
       false
     with Hydra_obs.Json.Error _ -> true);
  check_bool "blank input raises" true
    (try
       ignore (R.of_string "   \n  \n");
       false
     with Hydra_obs.Json.Error _ -> true)

(* ------------------------------------------------------------------ *)
(* Quantiles from serialized buckets *)

let sample_list_arb =
  QCheck.make
    ~print:QCheck.Print.(list int)
    QCheck.Gen.(
      list_size (int_range 1 200)
        (oneof
           [ int_range 0 70; int_range 0 10_000; int_range 0 10_000_000 ]))

let hist_of_histogram h =
  { R.h_count = H.count h; h_sum = H.sum h;
    h_min = Option.value (H.min_value h) ~default:0;
    h_max = Option.value (H.max_value h) ~default:0;
    h_buckets = H.nonzero_buckets h }

let prop_quantile_matches_histogram =
  (* a quantile recomputed from the serialized bucket array must equal
     the one the writing Histogram would report *)
  qtest ~count:200 "Report.quantile = Histogram.quantile" sample_list_arb
    (fun vs ->
      let h = H.of_list vs in
      let rh = hist_of_histogram h in
      List.for_all
        (fun q -> R.quantile rh q = H.quantile h q)
        [ 0.01; 0.50; 0.95; 0.99; 1.0 ])

let test_quantile_empty_and_clamped () =
  let empty = { R.h_count = 0; h_sum = 0; h_min = 0; h_max = 0; h_buckets = [] } in
  check_int "empty histogram" 0 (R.quantile empty 0.5);
  let h = hist_of_histogram (H.of_list [ 10; 20; 30 ]) in
  check_int "q clamped below" 10 (R.quantile h (-1.0));
  check_int "q clamped above" 30 (R.quantile h 2.0)

(* ------------------------------------------------------------------ *)
(* Flatten / diff / regression math *)

let test_flatten_keys_and_values () =
  let flat = R.flatten (R.of_string full_a) in
  let expected =
    [ ("a", 10.); ("b", 5.); ("d.count", 2.); ("d.mean", 5.);
      ("h.count", 3.); ("h.max", 15.); ("h.p50", 10.); ("h.p99", 15.);
      ("s.count", 4.) ]
  in
  check_bool "same keys" true
    (List.map fst flat = List.map fst expected);
  check_bool "same values" true
    (List.for_all2 (fun (_, x) (_, y) -> Float.equal x y) flat expected)

let find_change changes key =
  match List.find_opt (fun c -> c.R.key = key) changes with
  | Some c -> c
  | None -> Alcotest.failf "change for %s missing" key

let test_diff_and_pct_change () =
  let changes = R.diff (R.of_string full_a) (R.of_string full_b) in
  check_bool "keys sorted" true
    (List.map (fun c -> c.R.key) changes
    = List.sort_uniq String.compare (List.map (fun c -> c.R.key) changes));
  let a = find_change changes "a" in
  check_bool "+20%" true
    (match R.pct_change a with
    | Some p -> Float.equal p 20.
    | None -> false);
  let b = find_change changes "b" in
  check_bool "dropped key: after None" true
    (b.R.before = Some 5. && b.R.after = None && R.pct_change b = None);
  let c = find_change changes "c" in
  check_bool "new key: before None" true
    (c.R.before = None && c.R.after = Some 1. && R.pct_change c = None);
  let zero_to_pos = { R.key = "x"; before = Some 0.; after = Some 3. } in
  check_bool "0 -> positive is infinite" true
    (match R.pct_change zero_to_pos with
    | Some p -> Float.equal p Float.infinity
    | None -> false);
  let zero_to_zero = { R.key = "x"; before = Some 0.; after = Some 0. } in
  check_bool "0 -> 0 is 0%" true
    (match R.pct_change zero_to_zero with
    | Some p -> Float.equal p 0.
    | None -> false)

let test_regressions_threshold_and_watch () =
  let changes = R.diff (R.of_string full_a) (R.of_string full_b) in
  let keys cs = List.map (fun c -> c.R.key) cs in
  (* a +20%, d.count +100%, d.mean +100%; everything else unchanged,
     missing on one side, or a decrease *)
  check_bool "over 15% threshold" true
    (keys (R.regressions ~threshold_pct:15. changes)
    = [ "a"; "d.count"; "d.mean" ]);
  check_bool "over 50% threshold" true
    (keys (R.regressions ~threshold_pct:50. changes) = [ "d.count"; "d.mean" ]);
  check_bool "watch restricts keys" true
    (keys
       (R.regressions
          ~watch:(fun k -> String.length k >= 2 && String.sub k 0 2 = "d.")
          ~threshold_pct:15. changes)
    = [ "d.count"; "d.mean" ]);
  let improvement = { R.key = "y"; before = Some 10.; after = Some 5. } in
  check_bool "a decrease never regresses" true
    (R.regressions ~threshold_pct:0. [ improvement ] = [])

(* ------------------------------------------------------------------ *)
(* Rendering *)

let test_rendering_deterministic () =
  let a = R.of_string full_a and b = R.of_string full_b in
  let summary = Format.asprintf "%a" R.pp_summary a in
  check_bool "summary headed" true (has_substring summary "metrics snapshot");
  check_bool "summary lists counter" true (has_substring summary "a");
  let same = Format.asprintf "%a" (R.pp_diff ~only_changed:true) (R.diff a a) in
  check_bool "self-diff has no differences" true
    (has_substring same "(no differences)");
  let out = Format.asprintf "%a" (R.pp_diff ~only_changed:true) (R.diff a b) in
  check_bool "percent column rendered" true (has_substring out "+20.0%");
  check_bool "missing side rendered as dash" true (has_substring out " - ");
  let twice = Format.asprintf "%a" (R.pp_diff ~only_changed:true) (R.diff a b) in
  Alcotest.(check string) "rendering is deterministic" out twice

let () =
  Alcotest.run "obs-report"
    [ ( "loading",
        [ Alcotest.test_case "full snapshot" `Quick test_load_full_snapshot;
          Alcotest.test_case "errors" `Quick test_load_errors ] );
      ( "quantiles",
        [ prop_quantile_matches_histogram;
          Alcotest.test_case "empty and clamped" `Quick
            test_quantile_empty_and_clamped ] );
      ( "diff",
        [ Alcotest.test_case "flatten keys and values" `Quick
            test_flatten_keys_and_values;
          Alcotest.test_case "diff and pct_change" `Quick
            test_diff_and_pct_change;
          Alcotest.test_case "regressions threshold and watch" `Quick
            test_regressions_threshold_and_watch ] );
      ( "rendering",
        [ Alcotest.test_case "deterministic tables" `Quick
            test_rendering_deterministic ] ) ]
