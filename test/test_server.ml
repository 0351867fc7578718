(* Hydra_server tests: protocol codec roundtrips, engine admission
   semantics, per-tenant coalescing, the warm-vs-fresh-reference /
   jobs:1-vs-jobs:4 differential contract, the warm path's saving in
   work counts, and live daemon tests over a Unix-domain socket
   (including the serve-smoke fixture). *)

module Protocol = Hydra_server.Protocol
module Engine = Hydra_server.Engine
module Tenant = Hydra_server.Tenant
module Daemon = Hydra_server.Daemon
module Analysis = Hydra.Analysis
module Period_selection = Hydra.Period_selection

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let rt name wcet period = { Protocol.r_name = name; r_wcet = wcet; r_period = period }
let sec name wcet period_max =
  { Protocol.s_name = name; s_wcet = wcet; s_period_max = period_max }

let req ?(tenant = "t0") id op = { Protocol.q_id = id; q_tenant = tenant; q_op = op }

let with_engine ?obs ?(jobs = 1) f =
  let e = Engine.create ?obs ~jobs () in
  Fun.protect ~finally:(fun () -> Engine.shutdown e) (fun () -> f e)

let small_init =
  Protocol.Init
    { cores = 2;
      rt = [ rt "r0" 2 10; rt "r1" 3 15; rt "r2" 2 20 ];
      sec = [ sec "s0" 2 200; sec "s1" 3 300 ] }

let status r = r.Protocol.p_status

let assignments r =
  match r.Protocol.p_body with
  | Protocol.Periods a -> a
  | _ -> Alcotest.fail "expected an assignments body"

let the_stats r =
  match r.Protocol.p_body with
  | Protocol.Tenant_stats s -> s
  | _ -> Alcotest.fail "expected a stats body"

(* ------------------------------------------------------------------ *)
(* Protocol *)

let roundtrip_requests =
  [ req 0 small_init;
    req 1 (Protocol.Rt_arrive (rt "weird \"name\"\n" 1 5));
    req 2 (Protocol.Rt_leave "r0");
    req 3 (Protocol.Sec_arrive (sec "s9" 4 400));
    req 4 (Protocol.Sec_leave "s1");
    req 5 (Protocol.Set_cores 4);
    req 6 Protocol.Reselect;
    req 7 Protocol.Query;
    req 8 Protocol.Stats;
    req 9 Protocol.Remove;
    req 10 Protocol.Shutdown;
    req 11 Protocol.Obs_snapshot ]

let test_request_roundtrip () =
  List.iter
    (fun q ->
      let q' = Protocol.decode_request (Protocol.encode_request q) in
      check_bool "request roundtrip" true (q = q'))
    roundtrip_requests

let roundtrip_responses =
  [ Protocol.ok ~id:1 ~tenant:"t0"
      (Protocol.Periods
         [ { Protocol.a_name = "s0"; a_period = 54; a_resp = 37 };
           { Protocol.a_name = "s1"; a_period = 200; a_resp = 120 } ]);
    Protocol.ok ~id:2 ~tenant:"t0" (Protocol.Periods []);
    Protocol.ok ~id:3 ~tenant:"t0" Protocol.No_body;
    Protocol.unschedulable ~id:4 ~tenant:"t1";
    Protocol.rejected ~id:5 ~tenant:"t2" "no feasible core";
    Protocol.error ~id:(-1) ~tenant:"" "malformed JSON: oops";
    Protocol.ok ~id:7 ~tenant:""
      (Protocol.Metrics
         "{\"schema\":\"hydra_c.metrics/1\",\"counters\":{\"x\":1}}");
    Protocol.ok ~id:6 ~tenant:"t0"
      (Protocol.Tenant_stats
         { Protocol.st_cores = 2; st_rt = 3; st_sec = 2; st_selects = 4;
           st_cache_entries = 17; st_cache_capacity = 0;
           st_cache_hits = 100; st_cache_misses = 20; st_cache_evictions = 0;
           st_cache_refreshes = 5 }) ]

let test_response_roundtrip () =
  List.iter
    (fun p ->
      let p' = Protocol.decode_response (Protocol.encode_response p) in
      check_bool "response roundtrip" true (p = p'))
    roundtrip_responses

let test_decode_rejects () =
  let bad s = Alcotest.check_raises "protocol error" s in
  ignore bad;
  let expect_fail s =
    match Protocol.decode_request s with
    | _ -> Alcotest.fail "expected Protocol_error"
    | exception Protocol.Protocol_error _ -> ()
  in
  expect_fail "{";
  expect_fail "{\"v\":\"bogus/9\",\"id\":0,\"tenant\":\"t\",\"op\":\"query\"}";
  expect_fail "{\"v\":\"hydra_c.server/1\",\"id\":0,\"tenant\":\"t\",\"op\":\"nope\"}";
  expect_fail "{\"v\":\"hydra_c.server/1\",\"tenant\":\"t\",\"op\":\"query\"}";
  (* the retired delta-stream op is an unknown op like any other *)
  match
    Protocol.decode_request
      "{\"v\":\"hydra_c.server/1\",\"id\":0,\"tenant\":\"\",\"op\":\"obs_stream\"}"
  with
  | _ -> Alcotest.fail "obs_stream decoded"
  | exception Protocol.Protocol_error e ->
      Alcotest.(check string) "obs_stream is unknown"
        "unknown op \"obs_stream\"" e

(* Integer members accept exactly OCaml's int range [-2^62, 2^62):
   2^62 would wrap to min_int, and a reply would then carry an id its
   request never had. *)
let test_decode_int_range () =
  let v = "\"v\":\"hydra_c.server/1\"" in
  let query id =
    Printf.sprintf "{%s,\"id\":%s,\"tenant\":\"t\",\"op\":\"query\"}" v id
  in
  let init cores =
    Printf.sprintf
      "{%s,\"id\":0,\"tenant\":\"t\",\"op\":\"init\",\"cores\":%s,\"rt\":[],\
       \"sec\":[]}"
      v cores
  in
  let rejects member s =
    match Protocol.decode_request s with
    | _ -> Alcotest.failf "%s 2^62: expected Protocol_error" member
    | exception Protocol.Protocol_error e ->
        Alcotest.(check string) (member ^ " 2^62")
          (Printf.sprintf "member %S is not an integer" member) e
  in
  let id s = (Protocol.decode_request (query s)).Protocol.q_id in
  rejects "id" (query "4611686018427387904");
  rejects "id" (query "4.611686018427387904e18");
  rejects "cores" (init "4611686018427387904");
  check_int "2^62 - 512 decodes" (max_int - 511) (id "4611686018427387392");
  check_int "-2^62 decodes to min_int" min_int (id "-4611686018427387904")

(* Decoder fuzz: on any input, decode_request returns a request or
   raises Protocol_error, never another exception. Inputs are
   arbitrary byte strings, and single-byte substitutions and
   truncations of the encoded valid requests above; substitutions draw
   half their bytes from JSON's structural alphabet so that many
   mutants still parse and reach the schema checks. *)
let prop_decode_fuzz =
  let encoded =
    Array.of_list (List.map Protocol.encode_request roundtrip_requests)
  in
  let json_byte =
    let alphabet = "{}[]:,\"\\-+.0123456789eEtrufalsn " in
    QCheck.Gen.map (String.get alphabet)
      (QCheck.Gen.int_bound (String.length alphabet - 1))
  in
  let mutant =
    let open QCheck.Gen in
    oneofa encoded >>= fun s ->
    int_bound (String.length s - 1) >>= fun i ->
    frequency
      [ (1, return (String.sub s 0 i));
        ( 2,
          frequency [ (1, char); (1, json_byte) ] >|= fun c ->
          String.mapi (fun j b -> if j = i then c else b) s ) ]
  in
  let gen =
    QCheck.Gen.(
      frequency [ (1, string_size ~gen:char (0 -- 64)); (3, mutant) ])
  in
  Test_util.qtest ~count:2000 "decoder fuzz"
    (QCheck.make ~print:(Printf.sprintf "%S") gen)
    (fun s ->
      match Protocol.decode_request s with
      | _ -> true
      | exception Protocol.Protocol_error _ -> true)

let test_framing () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
  Fun.protect
    ~finally:(fun () ->
      close a;
      close b)
    (fun () ->
      Protocol.write_frame a "hello";
      Protocol.write_frame a "";
      Protocol.write_frame a (String.make 100_000 'x');
      Alcotest.(check (option string)) "frame 1" (Some "hello")
        (Protocol.read_frame b);
      Alcotest.(check (option string)) "frame 2" (Some "")
        (Protocol.read_frame b);
      (match Protocol.read_frame b with
      | Some s -> check_int "frame 3 length" 100_000 (String.length s)
      | None -> Alcotest.fail "missing frame");
      Unix.close a;
      Alcotest.(check (option string)) "clean EOF" None (Protocol.read_frame b))

(* ------------------------------------------------------------------ *)
(* Engine semantics *)

let test_init_and_query () =
  with_engine (fun e ->
      match Engine.exec_batch e [ req 0 small_init; req 1 Protocol.Query ] with
      | [ r0; r1 ] ->
          check_bool "init ok" true (status r0 = Protocol.Ok);
          check_bool "query ok" true (status r1 = Protocol.Ok);
          check_int "two sec rows" 2 (List.length (assignments r0));
          check_bool "query equals init selection" true
            (assignments r0 = assignments r1);
          List.iter
            (fun (a : Protocol.assignment) ->
              check_bool "resp <= period" true (a.a_resp <= a.a_period))
            (assignments r0)
      | _ -> Alcotest.fail "expected two responses")

let test_unknown_tenant () =
  with_engine (fun e ->
      match Engine.exec_batch e [ req 0 Protocol.Query ] with
      | [ r ] -> check_bool "error" true (status r = Protocol.Failed)
      | _ -> Alcotest.fail "expected one response")

let test_rejected_admission_keeps_state () =
  with_engine (fun e ->
      (* both cores already near-saturated: a third 0.6-utilization
         task with period 10 fits nowhere (6 + 6 > 10) *)
      let saturated =
        Protocol.Init
          { cores = 2; rt = [ rt "r0" 6 10; rt "r1" 6 10 ];
            sec = [ sec "s0" 1 200; sec "s1" 1 300 ] }
      in
      let before =
        match
          Engine.exec_batch e [ req 0 saturated; req 1 Protocol.Query ]
        with
        | [ _; r ] -> assignments r
        | _ -> Alcotest.fail "init failed"
      in
      match
        Engine.exec_batch e
          [ req 2 (Protocol.Rt_arrive (rt "hog" 6 10)); req 3 Protocol.Query ]
      with
      | [ r2; r3 ] ->
          check_bool "rejected" true (status r2 = Protocol.Rejected);
          check_bool "state unchanged" true (before = assignments r3)
      | _ -> Alcotest.fail "expected two responses")

let test_admission_changes_periods () =
  with_engine (fun e ->
      match
        Engine.exec_batch e
          [ req 0 small_init; req 1 Protocol.Query;
            req 2 (Protocol.Rt_arrive (rt "r3" 4 12)); req 3 Protocol.Query ]
      with
      | [ _; r1; r2; r3 ] ->
          check_bool "arrive ok" true (status r2 = Protocol.Ok);
          let p1 = List.map (fun a -> a.Protocol.a_period) (assignments r1) in
          let p3 = List.map (fun a -> a.Protocol.a_period) (assignments r3) in
          (* more RT interference can only push periods up *)
          List.iter2
            (fun before after ->
              check_bool "period did not shrink" true (after >= before))
            p1 p3
      | _ -> Alcotest.fail "expected four responses")

let test_sec_catalog_edits () =
  with_engine (fun e ->
      match
        Engine.exec_batch e
          [ req 0 small_init;
            req 1 (Protocol.Sec_arrive (sec "s2" 1 500));
            req 2 Protocol.Query;
            req 3 (Protocol.Sec_leave "s0");
            req 4 Protocol.Query ]
      with
      | [ _; r1; r2; _; r4 ] ->
          check_int "after arrive: 3 rows" 3 (List.length (assignments r2));
          check_bool "coalesced arrive sees final selection" true
            (assignments r1 = assignments r2);
          check_int "after leave: 2 rows" 2 (List.length (assignments r4));
          check_bool "s0 gone" true
            (List.for_all
               (fun a -> a.Protocol.a_name <> "s0")
               (assignments r4))
      | _ -> Alcotest.fail "expected five responses")

let test_unknown_names_error () =
  with_engine (fun e ->
      ignore (Engine.exec_batch e [ req 0 small_init ]);
      match
        Engine.exec_batch e
          [ req 1 (Protocol.Rt_leave "nope");
            req 2 (Protocol.Sec_leave "nope");
            req 3 (Protocol.Rt_arrive (rt "r0" 1 10));
            req 4 (Protocol.Sec_arrive (sec "s0" 1 100)) ]
      with
      | [ r1; r2; r3; r4 ] ->
          List.iter
            (fun r -> check_bool "error" true (status r = Protocol.Failed))
            [ r1; r2; r3; r4 ]
      | _ -> Alcotest.fail "expected four responses")

let test_set_cores () =
  with_engine (fun e ->
      match
        Engine.exec_batch e
          [ req 0 small_init; req 1 (Protocol.Set_cores 4);
            req 2 Protocol.Query; req 3 (Protocol.Set_cores 0);
            req 4 Protocol.Query ]
      with
      | [ _; r1; r2; r3; r4 ] ->
          check_bool "grow ok" true (status r1 = Protocol.Ok);
          check_int "still 2 rows" 2 (List.length (assignments r2));
          check_bool "cores=0 refused" true (status r3 <> Protocol.Ok);
          check_bool "state survived" true
            (List.length (assignments r4) = 2)
      | _ -> Alcotest.fail "expected five responses")

(* A core count above Task.max_cores is an error, from init and from
   set_cores alike, and leaves the tenant as it was: the workload memo
   grows with the core count (256 slots of M workloads), so at
   cores = 100_000 one small frame would have the daemon zero-fill a
   200 MB memo. The bound itself is admitted. *)
let test_cores_bound () =
  with_engine (fun e ->
      let stats () =
        match Engine.exec_batch e [ req 9 Protocol.Stats ] with
        | [ r ] -> the_stats r
        | _ -> Alcotest.fail "expected one response"
      in
      ignore (Engine.exec_batch e [ req 0 small_init; req 1 Protocol.Query ]);
      let before = stats () in
      let too_many cores =
        match
          Engine.exec_batch e
            [ req 2 (Protocol.Init { cores; rt = []; sec = [] });
              req 3 (Protocol.Set_cores cores) ]
        with
        | [ r2; r3 ] ->
            let at what = Printf.sprintf "%s at cores = %d" what cores in
            check_bool (at "init refused") true (status r2 = Protocol.Failed);
            check_bool (at "set_cores refused") true
              (status r3 = Protocol.Failed);
            check_bool (at "stats unchanged") true (stats () = before)
        | _ -> Alcotest.fail "expected two responses"
      in
      List.iter too_many [ Rtsched.Task.max_cores + 1; 100_000 ];
      match
        Engine.exec_batch e
          [ req 4 (Protocol.Set_cores Rtsched.Task.max_cores);
            req 5 Protocol.Query ]
      with
      | [ r4; r5 ] ->
          check_bool "the bound itself is admitted" true
            (status r4 = Protocol.Ok);
          check_int "still 2 rows" 2 (List.length (assignments r5));
          check_int "cores" Rtsched.Task.max_cores (stats ()).Protocol.st_cores
      | _ -> Alcotest.fail "expected two responses")

(* A time above Task.max_time is an error from init and from each
   arrival, and leaves the tenant as it was: an unbounded T^max once
   overflowed the period search's midpoint into a negative period
   (doc/ANALYSIS.md, "Numeric range"). So is an init of more than
   Task.max_tasks tasks, and an arrival at a tenant that holds as many.
   Each bound itself is admitted. *)
let test_time_bound () =
  let max_time = Rtsched.Task.max_time in
  with_engine (fun e ->
      let stats () =
        match Engine.exec_batch e [ req 9 Protocol.Stats ] with
        | [ r ] -> the_stats r
        | _ -> Alcotest.fail "expected one response"
      in
      ignore (Engine.exec_batch e [ req 0 small_init; req 1 Protocol.Query ]);
      let before = stats () in
      let crowd =
        List.init (Rtsched.Task.max_tasks + 1) (fun i ->
            sec (Printf.sprintf "s%d" i) 1 1000)
      in
      (match
         Engine.exec_batch e
           [ req 2
               (Protocol.Init
                  { cores = 2; rt = [ rt "r" 1 10 ];
                    sec = [ sec "s" 10 (max_time + 1) ] });
             req 3 (Protocol.Init { cores = 2; rt = []; sec = crowd });
             req 4 (Protocol.Sec_arrive (sec "late" 10 (max_time + 1)));
             req 5 (Protocol.Rt_arrive (rt "late" 1 (max_time + 1))) ]
       with
      | [ r2; r3; r4; r5 ] ->
          List.iteri
            (fun i r ->
              check_bool (Printf.sprintf "request %d refused" (i + 2)) true
                (status r = Protocol.Failed))
            [ r2; r3; r4; r5 ];
          check_bool "stats unchanged" true (stats () = before)
      | _ -> Alcotest.fail "expected four responses");
      (match
         Engine.exec_batch e
           [ req 6 (Protocol.Sec_arrive (sec "edge" 10 max_time));
             req 7 Protocol.Query ]
       with
      | [ r6; r7 ] ->
          check_bool "the bound itself is admitted" true
            (status r6 = Protocol.Ok);
          check_int "3 rows" 3 (List.length (assignments r7))
      | _ -> Alcotest.fail "expected two responses");
      (* a full tenant takes no arrival *)
      let full = List.tl crowd in
      match
        Engine.exec_batch e
          [ req 8 (Protocol.Init { cores = 1; rt = []; sec = full });
            req 10 (Protocol.Sec_arrive (sec "one more" 1 1000));
            req 11 (Protocol.Rt_arrive (rt "one more" 1 1000)) ]
      with
      | [ r8; r10; r11 ] ->
          check_bool "max_tasks admitted" true (status r8 <> Protocol.Failed);
          check_bool "sec arrival refused" true (status r10 = Protocol.Failed);
          check_bool "rt arrival refused" true (status r11 = Protocol.Failed)
      | _ -> Alcotest.fail "expected three responses")

let test_remove () =
  with_engine (fun e ->
      ignore (Engine.exec_batch e [ req 0 small_init ]);
      check_int "one tenant" 1 (Engine.tenant_count e);
      match Engine.exec_batch e [ req 1 Protocol.Remove; req 2 Protocol.Query ] with
      | [ r1; r2 ] ->
          check_bool "remove ok" true (status r1 = Protocol.Ok);
          check_bool "gone" true (status r2 = Protocol.Failed);
          check_int "no tenants" 0 (Engine.tenant_count e)
      | _ -> Alcotest.fail "expected two responses")

(* The tenant cap: a batch admits new tenants in first-occurrence
   order up to [Engine.max_tenants], the same at every [jobs]; a slot
   that [remove] frees counts from the next batch on, and replacing a
   resident tenant is always admitted. *)
let test_tenant_cap () =
  let init i = req ~tenant:(Printf.sprintf "t%d" i) i small_init in
  let run jobs =
    with_engine ~jobs (fun e ->
        let first = Engine.exec_batch e (List.init 66 init) in
        let count = Engine.tenant_count e in
        let second =
          Engine.exec_batch e
            [ req ~tenant:"t0" 100 Protocol.Remove; init 66; init 1 ]
        in
        let third = Engine.exec_batch e [ init 66 ] in
        (first, count, second, third, Engine.tenant_count e))
  in
  let ((first, count, second, third, final) as j1) = run 1 in
  let statuses rs = List.map status rs in
  check_bool "64 ok, then 2 rejected" true
    (statuses first
    = List.init 64 (fun _ -> Protocol.Ok)
      @ [ Protocol.Rejected; Protocol.Rejected ]);
  Alcotest.(check (option string)) "reason" (Some "tenant limit 64 reached")
    (List.nth first 65).Protocol.p_reason;
  check_int "tenant_count" Engine.max_tenants count;
  check_bool "remove frees no slot in its own batch" true
    (statuses second = [ Protocol.Ok; Protocol.Rejected; Protocol.Ok ]);
  check_bool "the next batch admits" true (statuses third = [ Protocol.Ok ]);
  check_int "still at the cap" Engine.max_tenants final;
  check_bool "identical at jobs 2" true (run 2 = j1)

(* ------------------------------------------------------------------ *)
(* Coalescing: a burst of dirty ops in one batch runs one selection *)

let test_coalescing () =
  with_engine (fun e ->
      let burst =
        req 0 small_init
        :: List.init 8 (fun i ->
               req (i + 1)
                 (Protocol.Sec_arrive
                    (sec (Printf.sprintf "x%d" i) 1 (400 + (10 * i)))))
      in
      let resps = Engine.exec_batch e burst in
      check_int "nine responses" 9 (List.length resps);
      let final = assignments (List.nth resps 8) in
      List.iter
        (fun r -> check_bool "all see final selection" true (assignments r = final))
        resps;
      let tn = Option.get (Engine.find_tenant e "t0") in
      check_int "one materialization for the whole burst" 1 (Tenant.selects tn);
      (* a second batch that only reads does not re-select *)
      ignore (Engine.exec_batch e [ req 100 Protocol.Query ]);
      check_int "query served from cache" 1 (Tenant.selects tn);
      ignore (Engine.exec_batch e [ req 101 Protocol.Reselect ]);
      check_int "reselect forces a pass" 2 (Tenant.selects tn))

let test_stats_count_selects () =
  with_engine (fun e ->
      ignore (Engine.exec_batch e [ req 0 small_init ]);
      ignore
        (Engine.exec_batch e [ req 1 (Protocol.Rt_arrive (rt "r9" 1 40)) ]);
      match Engine.exec_batch e [ req 2 Protocol.Stats ] with
      | [ r ] ->
          let s = the_stats r in
          check_int "two selects" 2 s.Protocol.st_selects;
          check_bool "resident cache is populated" true
            (s.Protocol.st_cache_entries > 0);
          check_int "default slot count" 256 s.Protocol.st_cache_capacity
      | _ -> Alcotest.fail "expected one response")

(* ------------------------------------------------------------------ *)
(* Differential: warm engine vs a fresh reference selection per
   response, jobs:1 vs jobs:4, vs the seed selection (test/oracle) on
   the final system *)

(* A deterministic random edit script, seeded per QCheck case. An LCG
   keeps the script generation independent of QCheck's shrinking. *)
type script = Protocol.request list list (* batches *)

let make_script seed : script =
  let state = ref (seed land 0x3FFFFFFF) in
  let rand m =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod m
  in
  let tenants = [| "a"; "b"; "c" |] in
  let next_rt = Array.make 3 0 and next_sec = Array.make 3 0 in
  let live_rt = Array.make 3 [] and live_sec = Array.make 3 [] in
  let id = ref 0 in
  let fresh () = incr id; !id in
  let init_for ti =
    let cores = 1 + rand 3 in
    let rtn = 1 + rand 3 and secn = 1 + rand 3 in
    let rts =
      List.init rtn (fun _ ->
          let k = next_rt.(ti) in
          next_rt.(ti) <- k + 1;
          let period = 8 + rand 40 in
          rt (Printf.sprintf "r%d" k) (1 + rand (max 1 (period / 6))) period)
    in
    let secs =
      List.init secn (fun _ ->
          let k = next_sec.(ti) in
          next_sec.(ti) <- k + 1;
          let pmax = 100 + rand 300 in
          sec (Printf.sprintf "s%d" k) (1 + rand 8) pmax)
    in
    live_rt.(ti) <- List.map (fun (r : Protocol.rt_spec) -> r.r_name) rts;
    live_sec.(ti) <- List.map (fun (s : Protocol.sec_spec) -> s.s_name) secs;
    Protocol.Init { cores; rt = rts; sec = secs }
  in
  let op_for ti =
    match rand 7 with
    | 0 ->
        let k = next_rt.(ti) in
        next_rt.(ti) <- k + 1;
        let name = Printf.sprintf "r%d" k in
        let period = 8 + rand 40 in
        live_rt.(ti) <- name :: live_rt.(ti);
        Protocol.Rt_arrive (rt name (1 + rand (max 1 (period / 6))) period)
    | 1 -> (
        match live_rt.(ti) with
        | [] -> Protocol.Query
        | n :: rest ->
            live_rt.(ti) <- rest;
            Protocol.Rt_leave n)
    | 2 ->
        let k = next_sec.(ti) in
        next_sec.(ti) <- k + 1;
        let name = Printf.sprintf "s%d" k in
        live_sec.(ti) <- name :: live_sec.(ti);
        Protocol.Sec_arrive (sec name (1 + rand 8) (100 + rand 300))
    | 3 -> (
        match live_sec.(ti) with
        | [] -> Protocol.Query
        | n :: rest ->
            live_sec.(ti) <- rest;
            Protocol.Sec_leave n)
    | 4 -> Protocol.Set_cores (1 + rand 4)
    | 5 -> Protocol.Reselect
    | _ -> Protocol.Query
  in
  let batches = ref [] in
  (* batch 0: one init per tenant (three groups — exercises sharding) *)
  batches :=
    [ Array.to_list
        (Array.mapi (fun ti t -> req ~tenant:t (fresh ()) (init_for ti)) tenants) ];
  let rounds = 6 + rand 6 in
  for _ = 1 to rounds do
    let batch =
      List.concat
        (List.init 3 (fun ti ->
             if rand 3 = 0 then []
             else [ req ~tenant:tenants.(ti) (fresh ()) (op_for ti) ]))
    in
    if batch <> [] then batches := batch :: !batches
  done;
  (* final queries, one batch, all three tenants *)
  batches :=
    Array.to_list
      (Array.map (fun t -> req ~tenant:t (fresh ()) Protocol.Query) tenants)
    :: !batches;
  List.rev !batches

(* The reference for one tenant state: Algorithm 1 on a fresh system
   of its snapshot — empty workload cache, no hints. *)
let fresh_select ?obs tn =
  let ts, assignment = Tenant.snapshot tn in
  Period_selection.select ?obs
    (Analysis.make_system ts ~assignment)
    ts.Rtsched.Task.sec

let carries_selection (r : Protocol.response) =
  match (r.p_status, r.p_body) with
  | Protocol.Unschedulable, _ | _, Protocol.Periods _ -> true
  | _ -> false

(* The response the engine gives [r]'s requester for [result]. *)
let selection_response (r : Protocol.response) = function
  | Period_selection.Schedulable rows ->
      Protocol.ok ~id:r.p_id ~tenant:r.p_tenant
        (Protocol.Periods
           (List.map
              (fun (a : Period_selection.assignment) ->
                { Protocol.a_name = a.sec.Rtsched.Task.sec_name;
                  a_period = a.period; a_resp = a.resp })
              rows))
  | Period_selection.Unschedulable ->
      Protocol.unschedulable ~id:r.p_id ~tenant:r.p_tenant

(* Every response that carries a selection must equal the fresh
   reference on its tenant's snapshot taken right after the batch.
   Exact because [make_script] puts at most one request per tenant in
   a batch, so that snapshot is the state the selection ran on. *)
let check_fresh e (r : Protocol.response) =
  if
    carries_selection r
    && selection_response r
         (fresh_select (Option.get (Engine.find_tenant e r.p_tenant)))
       <> r
  then QCheck.Test.fail_reportf "response %d <> fresh reference" r.p_id

let run_script ?obs ?(jobs = 1) ?(reference = false) script =
  with_engine ?obs ~jobs (fun e ->
      let wire =
        List.concat_map
          (fun batch ->
            let resps = Engine.exec_batch e batch in
            if reference then List.iter (check_fresh e) resps;
            List.map Protocol.encode_response resps)
          script
      in
      let finals =
        List.filter_map
          (fun t ->
            Option.map (fun tn -> (t, Tenant.snapshot tn))
              (Engine.find_tenant e t))
          [ "a"; "b"; "c" ]
      in
      (wire, finals))

let oracle_check (tenant, (ts, assignment)) wire =
  (* the reference selection on the final system must equal the last
     Query response the engine gave for this tenant *)
  let sys = Analysis.make_system ts ~assignment in
  let expected =
    Hydra_oracle.Naive_selection.select sys ts.Rtsched.Task.sec
  in
  let last_for_tenant =
    List.fold_left
      (fun acc s ->
        let r = Protocol.decode_response s in
        if r.Protocol.p_tenant = tenant && r.Protocol.p_status <> Protocol.Failed
        then Some r
        else acc)
      None wire
  in
  match last_for_tenant with
  | None -> ()
  | Some r ->
      check_bool "oracle selection matches" true
        (selection_response r expected = r)

let test_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:30 ~name:"warm = fresh reference = sharded = oracle"
       QCheck.(make Gen.(int_bound 0x3FFFFFF))
       (fun seed ->
         let script = make_script seed in
         let obs = Hydra_obs.create () and obs_par = Hydra_obs.create () in
         let wire, finals = run_script ~obs ~reference:true script in
         let wire_par, _ = run_script ~obs:obs_par ~jobs:4 script in
         if wire <> wire_par then
           QCheck.Test.fail_report "jobs:1 responses <> jobs:4 responses";
         if Hydra_obs.Snapshot.to_json obs <> Hydra_obs.Snapshot.to_json obs_par
         then QCheck.Test.fail_report "jobs:1 snapshot <> jobs:4 snapshot";
         List.iter (fun final -> oracle_check final wire) finals;
         true))

(* The warm path's saving, as deterministic work counts: the first 100
   requests of the steady script (test/drive) in lockstep on a warm
   engine, against the fresh reference for every response that carries
   a selection, each into its own registry. *)
let test_warm_path_saves_work () =
  let warm = Hydra_obs.create () and fresh = Hydra_obs.create () in
  with_engine ~obs:warm (fun e ->
      List.iter
        (fun q ->
          List.iter
            (fun (r : Protocol.response) ->
              if carries_selection r then
                ignore
                  (fresh_select ~obs:fresh
                     (Option.get (Engine.find_tenant e r.p_tenant))))
            (Engine.exec_batch e [ q ]))
        (Hydra_drive.Steady_script.prefix ~shutdown:false 100));
  List.iter
    (fun counter ->
      let w = Hydra_obs.counter_total warm counter
      and f = Hydra_obs.counter_total fresh counter in
      check_bool
        (Printf.sprintf "%s: warm %d < fresh %d" counter w f)
        true (w < f))
    [ "analysis.fixpoint.iterations"; "period_selection.search.steps" ]

(* ------------------------------------------------------------------ *)
(* Observability plumbing: obs ops, trace contexts, flight breadcrumbs *)

let test_engine_rejects_obs_ops () =
  (* scrape requests answer from daemon state; one that leaks into an
     engine batch must fail loudly, not perturb a tenant *)
  with_engine (fun e ->
      ignore (Engine.exec_batch e [ req 0 small_init ]);
      match
        Engine.exec_batch e
          [ req 1 Protocol.Obs_snapshot; req 2 Protocol.Query ]
      with
      | [ r1; r2 ] ->
          check_bool "snapshot refused" true (status r1 = Protocol.Failed);
          check_bool "rest of the batch unharmed" true
            (status r2 = Protocol.Ok)
      | _ -> Alcotest.fail "expected two responses")

(* Each flight [Select] event carries its selection's fixed-point
   iterations, read from the tenant's memo (0 when a clean tenant's
   last result is served), so over the first 100 requests of the
   steady script they sum to the registry's
   [analysis.fixpoint.iterations]. *)
let test_select_events_carry_work () =
  let obs = Hydra_obs.create () in
  let kept, dump =
    with_engine ~obs (fun e ->
        List.iter
          (fun q -> ignore (Engine.exec_batch e [ q ]))
          (Hydra_drive.Steady_script.prefix ~shutdown:false 100);
        let f = Engine.flight e in
        ( Hydra_obs.Flight.(recorded f <= capacity f),
          Hydra_obs.Flight.dump f ))
  in
  check_bool "the ring kept every event" true kept;
  let works =
    String.split_on_char '\n' dump
    |> List.filter (fun l -> l <> "")
    |> List.tl
    |> List.filter_map (fun l ->
           let j = Test_util.parse_json l in
           if Test_util.(as_str (member "kind" j)) = "select" then
             Some (int_of_float Test_util.(as_num (member "b" j)))
           else None)
  in
  check_bool "some selections ran" true (List.exists (fun b -> b > 0) works);
  check_int "Select b values sum to the registry's iterations"
    (Hydra_obs.counter_total obs "analysis.fixpoint.iterations")
    (List.fold_left ( + ) 0 works)

let ctx_batch =
  [ req 0 small_init; req 1 Protocol.Query;
    req ~tenant:"t1" 2 small_init;
    req 3 (Protocol.Rt_arrive (rt "r9" 1 40)); req 4 Protocol.Query ]

let test_exec_batch_with_ctxs () =
  let plain = with_engine ~jobs:2 (fun e -> Engine.exec_batch e ctx_batch) in
  let obs_t = Hydra_obs.create () in
  let root = Hydra_obs.Trace_ctx.root () in
  let ctxs =
    [| Some root; None; Some (Hydra_obs.Trace_ctx.root ());
       Some (Hydra_obs.Trace_ctx.child root); None |]
  in
  let traced, breadcrumbs =
    with_engine ~obs:obs_t ~jobs:2 (fun e ->
        let rs = Engine.exec_batch ~ctxs e ctx_batch in
        (rs, Hydra_obs.Flight.recorded (Engine.flight e)))
  in
  check_bool "responses identical under tracing" true (plain = traced);
  check_bool "trace spans recorded" true (Hydra_obs.trace_count obs_t > 0);
  check_bool "flight breadcrumbs recorded" true (breadcrumbs > 0);
  (* each traced request got a dispatch flow pair across the
     dispatcher/worker domains *)
  let json = Test_util.parse_json (Hydra_obs.chrome_trace obs_t) in
  let events = Test_util.(member "traceEvents" json |> as_list) in
  let count ph =
    List.length
      (List.filter
         (fun e ->
           Test_util.(as_str (member "ph" e)) = ph
           && (try Test_util.(as_str (member "cat" e)) = "request"
               with _ -> false))
         events)
  in
  check_int "one flow start per traced request" 3 (count "s");
  check_int "every start paired" 3 (count "f");
  (* the metrics side never sees the tracing side *)
  let obs_plain = Hydra_obs.create () in
  ignore
    (with_engine ~obs:obs_plain ~jobs:2 (fun e ->
         Engine.exec_batch e ctx_batch));
  Alcotest.(check string) "snapshot unchanged by tracing"
    (Hydra_obs.Snapshot.to_json obs_plain)
    (Hydra_obs.Snapshot.to_json obs_t);
  with_engine (fun e ->
      check_bool "ctxs length mismatch raises" true
        (try
           ignore (Engine.exec_batch ~ctxs:[| None |] e ctx_batch);
           false
         with Invalid_argument _ -> true))

(* ------------------------------------------------------------------ *)
(* Daemon smoke: serve over a real socket from a second domain *)

let test_daemon_socket () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hydra_c_test_%d.sock" (Unix.getpid ()))
  in
  let ready = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        Daemon.serve
          ~config:{ (Daemon.default_config ~socket_path:path) with jobs = 2 }
          ~on_ready:(fun () -> Atomic.set ready true)
          ())
  in
  while not (Atomic.get ready) do
    Domain.cpu_relax ()
  done;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX path);
      let rpc q =
        Protocol.write_frame fd (Protocol.encode_request q);
        match Protocol.read_frame fd with
        | Some s -> Protocol.decode_response s
        | None -> Alcotest.fail "daemon closed the connection"
      in
      let r0 = rpc (req 0 small_init) in
      check_bool "init ok" true (status r0 = Protocol.Ok);
      let r1 = rpc (req 1 Protocol.Query) in
      check_bool "query matches init" true
        (assignments r0 = assignments r1);
      (* malformed frame still gets a paired error response *)
      Protocol.write_frame fd "this is not json";
      (match Protocol.read_frame fd with
      | Some s ->
          let r = Protocol.decode_response s in
          check_bool "malformed -> error" true (status r = Protocol.Failed);
          check_int "error id" (-1) r.Protocol.p_id
      | None -> Alcotest.fail "no response to malformed frame");
      let r2 = rpc (req 2 Protocol.Shutdown) in
      check_bool "shutdown acked" true (status r2 = Protocol.Ok));
  Domain.join server;
  check_bool "socket cleaned up" false (Sys.file_exists path)

(* ------------------------------------------------------------------ *)
(* Live telemetry scrape and the flight recorder, against a real
   daemon *)

let with_daemon ?obs ~name ?(tweak = Fun.id) f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hydra_c_%s_%d.sock" name (Unix.getpid ()))
  in
  let ready = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        Daemon.serve ?obs
          ~config:(tweak (Daemon.default_config ~socket_path:path))
          ~on_ready:(fun () -> Atomic.set ready true)
          ())
  in
  while not (Atomic.get ready) do
    Domain.cpu_relax ()
  done;
  (* the daemon serves connections serially, so [f] must finish with
     (or close) one connection before opening the next *)
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  in
  let rpc fd q =
    Protocol.write_frame fd (Protocol.encode_request q);
    match Protocol.read_frame fd with
    | Some s -> Protocol.decode_response s
    | None -> Alcotest.fail "daemon closed the connection"
  in
  let result = f path connect rpc in
  Domain.join server;
  result

let the_metrics r =
  match r.Protocol.p_body with
  | Protocol.Metrics doc -> doc
  | _ -> Alcotest.fail "expected a metrics body"

let test_daemon_live_scrape () =
  let obs_t = Hydra_obs.create () in
  let last_doc =
    with_daemon ~obs:obs_t ~name:"scrape"
      ~tweak:(fun c -> { c with jobs = 2 })
      (fun _path connect rpc ->
        let fd = connect () in
        let doc3 =
          Fun.protect
            ~finally:(fun () ->
              try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              ignore (rpc fd (req 0 small_init));
              ignore (rpc fd (req 1 Protocol.Query));
              ignore (rpc fd (req 2 (Protocol.Rt_arrive (rt "r9" 1 40))));
              let m1 = rpc fd (req 3 Protocol.Obs_snapshot) in
              check_bool "scrape ok" true (status m1 = Protocol.Ok);
              let doc1 = the_metrics m1 in
              let snap1 = Hydra_obs.Report.of_string doc1 in
              check_int "engine work visible in the scrape" 3
                (List.assoc "server.requests" snap1.Hydra_obs.Report.counters);
              check_int "connection counted once" 1
                (List.assoc "server.connections"
                   snap1.Hydra_obs.Report.counters);
              (* a scrape must not perturb the metrics it returns: a
                 second snapshot is byte-identical *)
              let doc2 = the_metrics (rpc fd (req 4 Protocol.Obs_snapshot)) in
              Alcotest.(check string) "scrape leaves no footprint" doc1 doc2;
              (* what moved since the last scrape is the diff of two
                 scrapes: one query on a clean tenant moves exactly
                 these rows, each by one *)
              ignore (rpc fd (req 5 Protocol.Query));
              let doc3 = the_metrics (rpc fd (req 6 Protocol.Obs_snapshot)) in
              let moved =
                Hydra_obs.Report.(
                  diff (of_string doc2) (of_string doc3)
                  |> List.filter_map (fun c ->
                         let v = Option.value ~default:0. in
                         let d = v c.after -. v c.before in
                         if d = 0. then None
                         else Some (c.key, int_of_float d)))
              in
              Alcotest.(check (list (pair string int)))
                "one query's diff"
                [ ("pool.items", 1); ("pool.maps", 1);
                  ("server.batch.groups.count", 1); ("server.batches", 1);
                  ("server.req.query", 1); ("server.requests", 1) ]
                moved;
              doc3)
        in
        (* a later connection sees the same state byte for byte:
           neither the reconnect nor its scrape moves a metric *)
        let fd2 = connect () in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd2 with Unix.Unix_error _ -> ())
          (fun () ->
            Alcotest.(check string) "second connection's scrape" doc3
              (the_metrics (rpc fd2 (req 7 Protocol.Obs_snapshot)));
            ignore (rpc fd2 (req 8 Protocol.Shutdown)));
        doc3)
  in
  (* the acceptance gate: a live scrape equals the shutdown snapshot —
     nothing after the last engine request (scrapes, shutdown, the idle
     second connection) moved a metric *)
  Alcotest.(check string) "live scrape = shutdown snapshot" last_doc
    (Hydra_obs.Snapshot.to_json obs_t)

let test_daemon_sigusr1_flight_dump () =
  if not Sys.unix then ()
  else
    with_daemon ~name:"usr1" (fun path connect rpc ->
        let fd = connect () in
        let rpc q = rpc fd q in
        let flight_file = path ^ ".flight.jsonl" in
        (try Sys.remove flight_file with Sys_error _ -> ());
        (* no registry attached: scrapes fail cleanly... *)
        let m = rpc (req 0 Protocol.Obs_snapshot) in
        check_bool "scrape without registry fails" true
          (status m = Protocol.Failed);
        (* ...but the flight recorder is always on *)
        ignore (rpc (req 1 small_init));
        Unix.kill (Unix.getpid ()) Sys.sigusr1;
        ignore (rpc (req 2 Protocol.Query));
        let rec await n =
          if Sys.file_exists flight_file then ()
          else if n = 0 then Alcotest.fail "flight dump never appeared"
          else begin
            Unix.sleepf 0.05;
            await (n - 1)
          end
        in
        await 100;
        ignore (rpc (req 3 Protocol.Shutdown));
        (try Unix.close fd with Unix.Unix_error _ -> ());
        let lines =
          In_channel.with_open_text flight_file In_channel.input_lines
          |> List.filter (fun l -> l <> "")
        in
        (match lines with
        | header :: events ->
            Alcotest.(check string) "flight schema"
              Hydra_obs.Flight.schema
              Test_util.(as_str (member "schema" (parse_json header)));
            check_bool "events captured" true (events <> []);
            let kinds =
              List.map
                (fun l ->
                  Test_util.(as_str (member "kind" (parse_json l))))
                events
            in
            check_bool "accept breadcrumbs present" true
              (List.mem "accept" kinds);
            check_bool "reply breadcrumbs present" true
              (List.mem "reply" kinds)
        | [] -> Alcotest.fail "empty flight dump");
        try Sys.remove flight_file with Sys_error _ -> ())

(* The slow-request detector: with [slow_request_ms = 1], one init
   heavy enough to take tens of milliseconds (160 tasks on 4 cores;
   the selection dominates) trips it, and the batch's [slow] event,
   carrying its duration in ns, reaches the default flight file before
   the reply does. *)
let test_daemon_slow_request_dump () =
  let heavy_init =
    Protocol.Init
      { cores = 4;
        rt =
          List.init 120 (fun i ->
              rt (Printf.sprintf "r%d" i) (1 + (i mod 3))
                (100 + (20 * (i mod 25))));
        sec =
          List.init 40 (fun i ->
              sec (Printf.sprintf "s%d" i) (1 + (i mod 2))
                (2000 + (400 * (i mod 10)))) }
  in
  let flight_file =
    with_daemon ~name:"slow"
      ~tweak:(fun c -> { c with slow_request_ms = 1 })
      (fun path connect rpc ->
        let flight_file = path ^ ".flight.jsonl" in
        (try Sys.remove flight_file with Sys_error _ -> ());
        let fd = connect () in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            ignore (rpc fd (req 0 heavy_init));
            check_bool "dumped before the reply" true
              (Sys.file_exists flight_file);
            ignore (rpc fd (req 1 Protocol.Shutdown)));
        flight_file)
  in
  let slow =
    match In_channel.with_open_text flight_file In_channel.input_lines with
    | _header :: events ->
        List.filter_map
          (fun l ->
            let j = Test_util.parse_json l in
            if Test_util.(as_str (member "kind" j)) = "slow" then
              Some (int_of_float Test_util.(as_num (member "a" j)))
            else None)
          events
    | [] -> Alcotest.fail "empty flight dump"
  in
  (try Sys.remove flight_file with Sys_error _ -> ());
  check_bool "a slow event of at least 1 ms" true
    (List.exists (fun a -> a >= 1_000_000) slow)

(* A client that hangs up before reading its reply: A holds the
   daemon while B sends an init and closes, so the reply to B always
   hits a closed peer. The daemon must log it and keep serving. *)
let test_daemon_survives_hangup () =
  with_daemon ~name:"hangup" (fun _path connect rpc ->
      let a = connect () in
      let b = connect () in
      Protocol.write_frame b (Protocol.encode_request (req 0 small_init));
      Unix.close b;
      Unix.close a;
      let c = connect () in
      Fun.protect
        ~finally:(fun () -> try Unix.close c with Unix.Unix_error _ -> ())
        (fun () ->
          check_int "the init was applied" 1
            (the_stats (rpc c (req 1 Protocol.Stats))).Protocol.st_selects;
          check_bool "shutdown acked" true
            (status (rpc c (req 2 Protocol.Shutdown)) = Protocol.Ok)))

(* SIGTERM and SIGINT stop a real [serve] process as a [shutdown]
   request does: exit 0 within a second, the --metrics-out snapshot
   and the --flight-out dump written, the socket unlinked. The daemon
   runs as its own process, so that the signal reaches the thread
   blocked in its accept or read. With [idle], a client that sent its
   requests stays connected and silent, so the daemon is blocked
   reading it rather than in accept. *)
let test_daemon_stops_on_signal () =
  let run (name, signal, idle) =
    let tmp ext =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "hydra_c_%s_%d.%s" name (Unix.getpid ()) ext)
    in
    let sock = tmp "sock" and metrics = tmp "json" and flight = tmp "jsonl" in
    let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    let pid =
      Unix.create_process "../bin/hydra_experiments.exe"
        [| "hydra_experiments.exe"; "serve"; "--socket"; sock; "--jobs"; "2";
           "--metrics-out"; metrics; "--flight-out"; flight |]
        null null null
    in
    Unix.close null;
    (* a failed check must not leave the daemon running *)
    let reaped = ref false in
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let st =
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          if not !reaped then begin
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid)
          end)
        (fun () ->
          let rec connect attempts =
            match Unix.connect fd (Unix.ADDR_UNIX sock) with
            | () -> ()
            | exception
                Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
              when attempts > 0 ->
                Unix.sleepf 0.05;
                connect (attempts - 1)
          in
          connect 200;
          List.iter
            (fun q ->
              Protocol.write_frame fd (Protocol.encode_request q);
              match Protocol.read_frame fd with
              | Some s ->
                  check_bool "steady request ok" true
                    (status (Protocol.decode_response s) = Protocol.Ok)
              | None -> Alcotest.fail "daemon closed the connection")
            (Hydra_drive.Steady_script.prefix ~shutdown:false 5);
          if not idle then Unix.shutdown fd Unix.SHUTDOWN_ALL;
          Unix.kill pid signal;
          let deadline = Unix.gettimeofday () +. 1.0 in
          let rec await () =
            match Unix.waitpid [ Unix.WNOHANG ] pid with
            | 0, _ when Unix.gettimeofday () < deadline ->
                Unix.sleepf 0.01;
                await ()
            | 0, _ ->
                Alcotest.failf "%s: the daemon was still running after 1 s"
                  name
            | _, st ->
                reaped := true;
                st
          in
          await ())
    in
    check_bool (name ^ ": exit 0") true (st = Unix.WEXITED 0);
    check_bool (name ^ ": socket unlinked") false (Sys.file_exists sock);
    let snap =
      Hydra_obs.Report.of_string
        (In_channel.with_open_bin metrics In_channel.input_all)
    in
    check_int (name ^ ": snapshot counts the requests") 5
      (List.assoc "server.requests" snap.Hydra_obs.Report.counters);
    (match
       In_channel.with_open_text flight In_channel.input_lines
       |> List.filter (fun l -> l <> "")
     with
    | header :: events ->
        Alcotest.(check string) (name ^ ": flight schema")
          Hydra_obs.Flight.schema
          Test_util.(as_str (member "schema" (parse_json header)));
        let kind l = Test_util.(as_str (member "kind" (parse_json l))) in
        check_bool (name ^ ": reply breadcrumbs") true
          (List.exists (fun l -> kind l = "reply") events)
    | [] -> Alcotest.failf "%s: empty flight dump" name);
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      [ metrics; flight ]
  in
  if Sys.unix then
    List.iter run
      [ ("sigterm", Sys.sigterm, false);
        ("sigterm_idle", Sys.sigterm, true);
        ("sigint_idle", Sys.sigint, true) ]

(* The serve-smoke fixture, in process: the steady script's first 100
   requests plus a Shutdown, in lockstep over a real socket. The reply
   transcript must match the committed file byte for byte. *)
let test_daemon_serve_smoke () =
  let obs_t = Hydra_obs.create () in
  let frames = Hydra_drive.Steady_script.prefix 100 in
  let transcript = Buffer.create 40_000 in
  with_daemon ~obs:obs_t ~name:"smoke"
    ~tweak:(fun c -> { c with jobs = 2 })
    (fun _path connect _rpc ->
      let fd = connect () in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          List.iter
            (fun q ->
              Protocol.write_frame fd (Protocol.encode_request q);
              match Protocol.read_frame fd with
              | Some s -> Buffer.add_string transcript (s ^ "\n")
              | None -> Alcotest.fail "daemon closed the connection")
            frames));
  Alcotest.(check string) "transcript = serve_smoke.expected"
    (In_channel.with_open_bin "server_fixtures/serve_smoke.expected"
       In_channel.input_all)
    (Buffer.contents transcript)

(* Daemon-side minting, in process: with [trace] on, every frame of a
   lockstep stream (the shutdown included) gets a request span and
   every engine-bound request one dispatch flow pair; with it off
   nothing is traced. The two runs' snapshots are byte-identical. *)
let test_daemon_tracing () =
  let n = 20 in
  let run trace =
    let obs_t = Hydra_obs.create () in
    with_daemon ~obs:obs_t
      ~name:(if trace then "traced" else "untraced")
      ~tweak:(fun c -> { c with jobs = 2; trace })
      (fun _path connect rpc ->
        let fd = connect () in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            List.iter
              (fun q -> ignore (rpc fd q))
              (Hydra_drive.Steady_script.prefix n)));
    obs_t
  in
  let traced = run true and plain = run false in
  let events =
    Test_util.(
      member "traceEvents" (parse_json (Hydra_obs.chrome_trace traced))
      |> as_list)
  in
  let count name ph =
    List.length
      (List.filter
         (fun e ->
           Test_util.(as_str (member "name" e)) = name
           && Test_util.(as_str (member "ph" e)) = ph)
         events)
  in
  check_int "one request span per frame" (n + 1) (count "server.request" "X");
  check_int "one dispatch start per engine request" n
    (count "server.dispatch" "s");
  check_int "every start paired" n (count "server.dispatch" "f");
  check_int "untraced run records nothing" 0 (Hydra_obs.trace_count plain);
  Alcotest.(check string) "snapshot unchanged by tracing"
    (Hydra_obs.Snapshot.to_json plain)
    (Hydra_obs.Snapshot.to_json traced)

let () =
  Alcotest.run "server"
    [ ( "protocol",
        [ Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "response roundtrip" `Quick
            test_response_roundtrip;
          Alcotest.test_case "decode rejects" `Quick test_decode_rejects;
          Alcotest.test_case "integer range" `Quick test_decode_int_range;
          prop_decode_fuzz;
          Alcotest.test_case "framing" `Quick test_framing ] );
      ( "engine",
        [ Alcotest.test_case "init + query" `Quick test_init_and_query;
          Alcotest.test_case "unknown tenant" `Quick test_unknown_tenant;
          Alcotest.test_case "rejected admission keeps state" `Quick
            test_rejected_admission_keeps_state;
          Alcotest.test_case "admission grows periods" `Quick
            test_admission_changes_periods;
          Alcotest.test_case "security catalog edits" `Quick
            test_sec_catalog_edits;
          Alcotest.test_case "unknown names error" `Quick
            test_unknown_names_error;
          Alcotest.test_case "set_cores" `Quick test_set_cores;
          Alcotest.test_case "cores bound" `Quick test_cores_bound;
          Alcotest.test_case "time bound" `Quick test_time_bound;
          Alcotest.test_case "remove" `Quick test_remove;
          Alcotest.test_case "tenant cap" `Quick test_tenant_cap ] );
      ( "coalescing",
        [ Alcotest.test_case "burst runs one select" `Quick test_coalescing;
          Alcotest.test_case "stats count selects" `Quick
            test_stats_count_selects ] );
      ( "differential",
        [ test_differential;
          Alcotest.test_case "warm path saves work" `Quick
            test_warm_path_saves_work ] );
      ( "observability",
        [ Alcotest.test_case "engine rejects obs ops" `Quick
            test_engine_rejects_obs_ops;
          Alcotest.test_case "exec_batch with trace contexts" `Quick
            test_exec_batch_with_ctxs;
          Alcotest.test_case "select events carry their work" `Quick
            test_select_events_carry_work ] );
      ( "daemon",
        [ Alcotest.test_case "socket smoke" `Quick test_daemon_socket;
          Alcotest.test_case "live scrape" `Quick test_daemon_live_scrape;
          Alcotest.test_case "SIGUSR1 flight dump" `Quick
            test_daemon_sigusr1_flight_dump;
          Alcotest.test_case "slow-request dump" `Quick
            test_daemon_slow_request_dump;
          Alcotest.test_case "client hangup survives" `Quick
            test_daemon_survives_hangup;
          Alcotest.test_case "SIGTERM/SIGINT stop cleanly" `Quick
            test_daemon_stops_on_signal;
          Alcotest.test_case "serve-smoke fixture" `Quick
            test_daemon_serve_smoke;
          Alcotest.test_case "request tracing on and off" `Quick
            test_daemon_tracing ] )
    ]
