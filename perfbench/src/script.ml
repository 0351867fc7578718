module P = Hydra_server.Protocol
module Rng = Taskgen.Rng

type mix = Steady | Churn

let reinit_every = 40
let cores = 4
let rt_periods = [| 100; 120; 150; 200; 240; 300; 400; 500; 600; 800 |]

type tenant = {
  name : string;
  mutable fresh : int;  (* next fresh task-name number *)
  mutable live_rt : string list;
  mutable live_sec : string list;
  mutable ops : int;  (* requests since the last init *)
}

type t = {
  mix : mix;
  rng : Rng.t;
  ts : tenant array;
  mutable next_id : int;
}

let create ~mix ~seed =
  let rng = Rng.create ((seed * 2) + match mix with Steady -> 0 | Churn -> 1) in
  let n = 6 + Rng.int rng 3 in
  let ts =
    Array.init n (fun i ->
        { name = Printf.sprintf "t%d" i; fresh = 0; live_rt = []; live_sec = []; ops = 0 })
  in
  { mix; rng; ts; next_id = 0 }

let request t tenant op =
  let q = { P.q_id = t.next_id; q_tenant = tenant.name; q_op = op } in
  t.next_id <- t.next_id + 1;
  q

let init_rt = 24
let init_sec = 8

let init_op t tn =
  let r = t.rng in
  let rt =
    List.init init_rt (fun i ->
        { P.r_name = Printf.sprintf "r%d" i; r_wcet = 1 + Rng.int r 3;
          r_period = rt_periods.(Rng.int r (Array.length rt_periods)) })
  in
  let sec =
    List.init init_sec (fun i ->
        { P.s_name = Printf.sprintf "s%d" i; s_wcet = 1 + Rng.int r 2;
          s_period_max = 2000 + (400 * Rng.int r 10) })
  in
  tn.fresh <- max init_rt init_sec;
  tn.live_rt <- List.map (fun (s : P.rt_spec) -> s.r_name) rt;
  tn.live_sec <- List.map (fun (s : P.sec_spec) -> s.s_name) sec;
  tn.ops <- 0;
  P.Init { cores; rt; sec }

let fresh_name tn prefix =
  let name = Printf.sprintf "%s%d" prefix tn.fresh in
  tn.fresh <- tn.fresh + 1;
  name

let rt_arrive t tn =
  let name = fresh_name tn "r" in
  tn.live_rt <- name :: tn.live_rt;
  P.Rt_arrive { r_name = name; r_wcet = 1; r_period = 200 + (20 * Rng.int t.rng 20) }

let sec_arrive t tn =
  let name = fresh_name tn "s" in
  tn.live_sec <- name :: tn.live_sec;
  P.Sec_arrive { s_name = name; s_wcet = 1; s_period_max = 2000 + (400 * Rng.int t.rng 10) }

let pick_remove t l =
  let i = Rng.int t.rng (List.length l) in
  (List.nth l i, List.filteri (fun j _ -> j <> i) l)

(* The op weights of bench/server_record.ml, the script behind
   BENCH_server.json's warm-select ratios. *)
let steady_op t tn =
  let roll = Rng.int t.rng 100 in
  if roll < 15 then sec_arrive t tn
  else if roll < 30 then rt_arrive t tn
  else if roll < 70 then P.Reselect
  else P.Query

let churn_op t tn =
  let roll = Rng.int t.rng 100 in
  if roll < 15 then rt_arrive t tn
  else if roll < 30 then
    if List.length tn.live_rt > 2 then begin
      let name, rest = pick_remove t tn.live_rt in
      tn.live_rt <- rest;
      P.Rt_leave name
    end
    else P.Query
  else if roll < 45 then sec_arrive t tn
  else if roll < 60 then
    if List.length tn.live_sec > 2 then begin
      let name, rest = pick_remove t tn.live_sec in
      tn.live_sec <- rest;
      P.Sec_leave name
    end
    else P.Query
  else if roll < 68 then P.Set_cores (2 + Rng.int t.rng 3)
  else if roll < 90 then P.Reselect
  else P.Query

let init_requests t =
  Array.to_list (Array.map (fun tn -> request t tn (init_op t tn)) t.ts)

let next t =
  let tn = t.ts.(Rng.int t.rng (Array.length t.ts)) in
  let op =
    if tn.ops >= reinit_every then init_op t tn
    else begin
      tn.ops <- tn.ops + 1;
      match t.mix with Steady -> steady_op t tn | Churn -> churn_op t tn
    end
  in
  request t tn op

let stats_requests t =
  Array.to_list (Array.map (fun tn -> request t tn P.Stats) t.ts)

let sizes t =
  Array.to_list
    (Array.map (fun tn -> (List.length tn.live_rt, List.length tn.live_sec)) t.ts)
