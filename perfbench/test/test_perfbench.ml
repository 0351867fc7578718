(* Tests of the benchmark's own logic: request scripts, order
   statistics and span self-time. *)

open Perfbench
module P = Hydra_server.Protocol

let take script n = List.init n (fun _ -> P.encode_request (Script.next script))

let script_deterministic () =
  List.iter
    (fun mix ->
      let a = Script.create ~mix ~seed:7 and b = Script.create ~mix ~seed:7 in
      let enc s = List.map P.encode_request (Script.init_requests s) in
      Alcotest.(check (list string)) "same inits" (enc a) (enc b);
      Alcotest.(check (list string)) "same requests" (take a 5000) (take b 5000);
      let first seed =
        let s = Script.create ~mix ~seed in
        let inits = enc s in
        inits @ take s 200
      in
      Alcotest.(check bool) "another seed differs" false (first 7 = first 8))
    [ Script.Steady; Script.Churn ]

(* Sizes stay within what one re-init cycle can add, and churn's leaves
   keep at least two tasks of each kind, however long the script
   runs. *)
let sizes_bounded () =
  let check mix ~rt:(rt_lo, rt_hi) ~sec:(sec_lo, sec_hi) =
    let s = Script.create ~mix ~seed:3 in
    ignore (Script.init_requests s);
    for _ = 1 to 200 do
      ignore (take s 500);
      List.iter
        (fun (rt, sec) ->
          if rt < rt_lo || rt > rt_hi || sec < sec_lo || sec > sec_hi then
            Alcotest.failf "tenant size (%d RT, %d sec) out of bounds" rt sec)
        (Script.sizes s)
    done
  in
  check Script.Steady ~rt:(24, 24 + Script.reinit_every) ~sec:(8, 8 + Script.reinit_every);
  check Script.Churn ~rt:(2, 24 + Script.reinit_every) ~sec:(2, 8 + Script.reinit_every)

(* Every request of either mix is admitted: the script never looks at
   replies, so an error reply would be the script's fault. *)
let script_admitted () =
  List.iter
    (fun mix ->
      let s = Script.create ~mix ~seed:11 in
      let eng = Hydra_server.Engine.create () in
      let inits = Script.init_requests s in
      let reqs = inits @ List.init 2000 (fun _ -> Script.next s) in
      List.iter
        (fun q ->
          match Hydra_server.Engine.exec_batch eng [ q ] with
          | [ { P.p_status = P.Ok | P.Unschedulable; _ } ] -> ()
          | [ r ] -> Alcotest.failf "request %d: %s" q.P.q_id (P.encode_response r)
          | _ -> Alcotest.failf "request %d: not one response" q.P.q_id)
        (reqs @ Script.stats_requests s);
      Hydra_server.Engine.shutdown eng)
    [ Script.Steady; Script.Churn ]

let percentiles () =
  let a = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.)) "p99 nearest rank" 990. (Stats.quantile a 0.99);
  Alcotest.(check (float 0.)) "p50" 500. (Stats.quantile a 0.5);
  Alcotest.(check (float 0.)) "max" 1000. (Stats.quantile a 1.0);
  Alcotest.(check (float 0.)) "even median" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.(check (float 0.)) "odd median" 3. (Stats.median [| 5.; 1.; 3. |]);
  Alcotest.(check (float 0.)) "one sample" 5. (Stats.quantile [| 5. |] 0.99);
  Alcotest.(check bool) "1000 support p99" true (Stats.supports ~n:1000 ~q:0.99);
  Alcotest.(check bool) "999 do not" false (Stats.supports ~n:999 ~q:0.99);
  Alcotest.(check bool) "20 support p50" true (Stats.supports ~n:20 ~q:0.5);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.median: no samples") (fun () ->
      ignore (Stats.median [||]))

let span name tid start stop = { Spans.name; tid; start_ns = start; dur_ns = stop - start }

let self_time () =
  let spans =
    [ span "root" 0 0 100; span "a" 0 10 40; span "b" 0 50 90; span "c" 0 60 70;
      span "c" 0 70 75; span "d" 1 0 50; span "e" 1 50 60 ]
  in
  Alcotest.(check (list (pair string int)))
    "self = duration - direct children"
    [ ("a", 30); ("b", 25); ("c", 15); ("d", 50); ("e", 10); ("root", 30) ]
    (Spans.self_times spans);
  Alcotest.(check int) "total" 15 (Spans.total spans "c")

let chrome_trace () =
  let doc =
    {|{"displayTimeUnit":"ms","traceEvents":[{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"hydra"}},|}
    ^ {|{"name":"outer","cat":"span","ph":"X","pid":0,"tid":0,"ts":1.000,"dur":10.500},|}
    ^ {|{"name":"in}ner","cat":"request","ph":"X","pid":0,"tid":0,"ts":2.250,"dur":3.000,"args":{"trace":1,"span":2,"parent":1}},|}
    ^ {|{"name":"server.dispatch","cat":"request","ph":"s","pid":0,"tid":0,"ts":2.000,"id":1}]}|}
  in
  let spans = Spans.of_chrome_trace doc in
  Alcotest.(check (list (pair string int))) "X events only, in ns"
    [ ("outer", 1000); ("in}ner", 2250) ]
    (List.map (fun (s : Spans.span) -> (s.name, s.start_ns)) spans);
  Alcotest.(check (list (pair string int))) "nested across categories"
    [ ("in}ner", 3000); ("outer", 7500) ]
    (Spans.self_times spans)

(* A real registry round trip: spans recorded with Hydra_obs and
   written by its exporter nest as recorded. *)
let registry_round_trip () =
  let reg = Hydra_obs.create () in
  let obs = Some reg in
  Hydra_obs.span obs "outer" (fun () ->
      Hydra_obs.span obs "inner" (fun () -> Unix.sleepf 0.002);
      Unix.sleepf 0.002);
  let spans = Spans.of_chrome_trace (Hydra_obs.chrome_trace reg) in
  let selfs = Spans.self_times spans in
  let outer = Spans.total spans "outer" and inner = Spans.total spans "inner" in
  Alcotest.(check int) "outer self = outer - inner" (outer - inner) (List.assoc "outer" selfs);
  Alcotest.(check bool) "inner measured" true (List.assoc "inner" selfs >= 2_000_000)

let () =
  Alcotest.run "perfbench"
    [ ( "script",
        [ Alcotest.test_case "deterministic for a seed" `Quick script_deterministic;
          Alcotest.test_case "tenant sizes bounded" `Quick sizes_bounded;
          Alcotest.test_case "every request admitted" `Quick script_admitted ] );
      ("stats", [ Alcotest.test_case "percentile and sample-count rule" `Quick percentiles ]);
      ( "spans",
        [ Alcotest.test_case "self time from nested spans" `Quick self_time;
          Alcotest.test_case "chrome trace parsing" `Quick chrome_trace;
          Alcotest.test_case "registry round trip" `Quick registry_round_trip ] ) ]
