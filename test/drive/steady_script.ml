(* The steady request script: one init per resident tenant (M =
   [cores], [rt_tasks] RT and [sec_tasks] security tasks each), then
   [requests] arrivals, reselects and queries. Every edit preserves
   the warm floors (doc/SERVER.md), so the daemon stays on its warm
   path. The stream is a pure function of the constants below — the
   committed serve-smoke fixture depends on it. *)

module Protocol = Hydra_server.Protocol

let tenants = 6
let cores = 4
let rt_tasks = 24
let sec_tasks = 8
let requests = 300
let seed = 42

(* A self-contained 64-bit LCG, independent of any library RNG. *)
let lcg s = ((s * 1103515245) + 12345) land 0x3FFF_FFFF

let rand r n =
  r := lcg !r;
  !r / 7 mod n

let rt_periods = [| 100; 120; 150; 200; 240; 300; 400; 500; 600; 800 |]

(* Init tasksets are deliberately light (per-task utilization <= 3%):
   admissions should mostly succeed so the script keeps exercising
   selection, not the cheap rejection path. [fresh] is the tenant's
   next fresh task-name number, shared by RT and security tasks. *)
let init_request r ~id ~tenant fresh =
  let rt =
    List.init rt_tasks (fun i ->
        { Protocol.r_name = Printf.sprintf "r%d" i;
          r_wcet = 1 + rand r 3;
          r_period = rt_periods.(rand r (Array.length rt_periods)) })
  in
  let sec =
    List.init sec_tasks (fun i ->
        { Protocol.s_name = Printf.sprintf "s%d" i;
          s_wcet = 1 + rand r 2;
          s_period_max = 2000 + (400 * rand r 10) })
  in
  fresh := max rt_tasks sec_tasks;
  { Protocol.q_id = id; q_tenant = tenant;
    q_op = Protocol.Init { cores; rt; sec } }

let fresh_rt r fresh =
  let name = Printf.sprintf "r%d" !fresh in
  incr fresh;
  { Protocol.r_name = name; r_wcet = 1; r_period = 200 + (20 * rand r 20) }

let fresh_sec r fresh =
  let name = Printf.sprintf "s%d" !fresh in
  incr fresh;
  { Protocol.s_name = name; s_wcet = 1;
    s_period_max = 2000 + (400 * rand r 10) }

(* Arrivals grow interference; reselect/query edit nothing. Most
   requests either re-confirm a selection the solution barely moved
   from or just read it back — the monitoring steady state the warm
   path is built for. *)
let steady_op r fresh =
  let roll = rand r 100 in
  if roll < 15 then Protocol.Sec_arrive (fresh_sec r fresh)
  else if roll < 30 then Protocol.Rt_arrive (fresh_rt r fresh)
  else if roll < 70 then Protocol.Reselect
  else Protocol.Query

let script () =
  (* the + 1 is part of the stream the fixture pins *)
  let r = ref (lcg (seed + 1)) in
  let names = Array.init tenants (Printf.sprintf "t%d") in
  let fresh = Array.map (fun _ -> ref 0) names in
  let reqs = ref [] and id = ref 0 in
  Array.iteri
    (fun i tenant ->
      reqs := init_request r ~id:!id ~tenant fresh.(i) :: !reqs;
      incr id)
    names;
  for _ = 1 to requests / tenants do
    Array.iteri
      (fun i tenant ->
        let op = steady_op r fresh.(i) in
        reqs := { Protocol.q_id = !id; q_tenant = tenant; q_op = op } :: !reqs;
        incr id)
      names
  done;
  List.rev !reqs

let prefix ?(shutdown = true) n =
  let reqs = List.filteri (fun i _ -> i < n) (script ()) in
  if shutdown then
    reqs
    @ [ { Protocol.q_id = List.length reqs; q_tenant = "_daemon";
          q_op = Protocol.Shutdown } ]
  else reqs
