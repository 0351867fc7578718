(* daemon_steady / daemon_churn: the admission daemon (hydra_c serve
   at its default configuration) in its own process, driven by one
   client — this process, one thread, one connection — in a lockstep
   closed loop: each request is sent after the previous reply. The
   requests come from Script; one operation is one request. Every
   reply is then checked against an in-process replay of the same
   requests. *)

module P = Hydra_server.Protocol
module Engine = Hydra_server.Engine

(* The CLI built beside this executable:
   <build>/default/perfbench/main/main.exe -> <build>/default/bin/. *)
let daemon_exe () =
  let main_dir = Filename.dirname Sys.executable_name in
  Filename.concat (Filename.dirname (Filename.dirname main_dir)) "bin/hydra_experiments.exe"

type daemon = { pid : int; fd : Unix.file_descr; mutable alive : bool }

let kill d =
  if d.alive then begin
    d.alive <- false;
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] d.pid)
  end

let rpc fd payload =
  P.write_frame fd payload;
  match P.read_frame fd with
  | Some reply -> reply
  | None -> failwith "daemon closed the connection"

let connect ~path ~pid =
  let deadline = Common.now_ns () + 60_000_000_000 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "daemon exited before accepting");
        if Common.now_ns () > deadline then failwith "daemon did not accept";
        Unix.sleepf 0.0002;
        go ()
  in
  go ()

(* One set-up: spawn the daemon, wait until its socket accepts, and
   send every tenant's init. Returns the daemon, the init replies and
   the elapsed time. *)
let start ~path ~inits =
  let exe = daemon_exe () in
  let t0 = Common.now_ns () in
  let pid =
    Unix.create_process exe [| exe; "serve"; "--socket"; path |] Unix.stdin
      Unix.stderr Unix.stderr
  in
  let d = { pid; fd = Unix.stdin; alive = true } in
  match
    let fd = connect ~path ~pid in
    (fd, List.map (fun payload -> rpc fd payload) inits)
  with
  | fd, replies -> ({ d with fd }, replies, Common.seconds (Common.now_ns () - t0))
  | exception e ->
      kill d;
      raise e

let stop d =
  if d.alive then begin
    (try
       ignore (rpc d.fd (P.encode_request { P.q_id = 0; q_tenant = ""; q_op = P.Shutdown }));
       Unix.close d.fd
     with e ->
       kill d;
       raise e);
    d.alive <- false;
    match Unix.waitpid [] d.pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> failwith "daemon did not exit cleanly"
  end

(* ------------------------------------------------------------------ *)
(* Replays: the daemon's per-request work — decode, a one-request
   Engine.exec_batch, encode — plus the client's codec, in process, on
   an engine at the daemon's defaults. *)

let exec_one ?ctx eng q =
  match Engine.exec_batch ?ctxs:(Option.map (fun c -> [| c |]) ctx) eng [ q ] with
  | [ r ] -> r
  | _ -> failwith "exec_batch: not one response"

(* Untraced: the reply bytes and the in-process time per request. *)
let replay requests =
  let eng = Engine.create ~jobs:1 () in
  Fun.protect ~finally:(fun () -> Engine.shutdown eng) @@ fun () ->
  Array.map
    (fun q ->
      let t0 = Common.now_ns () in
      let reply = P.encode_response (exec_one eng (P.decode_request (P.encode_request q))) in
      ignore (P.decode_response reply);
      (reply, Common.now_ns () - t0))
    requests

(* Traced: a span around each layer's call, the request-scoped spans
   the engine emits for a request that carries a trace context. *)
let traced_replay reg requests =
  let obs = Some reg in
  let eng = Engine.create ~obs:reg ~jobs:1 () in
  Fun.protect ~finally:(fun () -> Engine.shutdown eng) @@ fun () ->
  Hydra_obs.span obs "daemon.replay" @@ fun () ->
  Array.map
    (fun q ->
      let ctx = Hydra_obs.Trace_ctx.root () in
      let payload = Hydra_obs.span obs "protocol.client" (fun () -> P.encode_request q) in
      let q = Hydra_obs.span obs "protocol.decode" (fun () -> P.decode_request payload) in
      let r = Hydra_obs.span obs "engine.exec" (fun () -> exec_one ~ctx:(Some ctx) eng q) in
      let reply = Hydra_obs.span obs "protocol.encode" (fun () -> P.encode_response r) in
      ignore (Hydra_obs.span obs "protocol.client" (fun () -> P.decode_response reply));
      reply)
    requests

(* ------------------------------------------------------------------ *)
(* Checks *)

type tally = { mutable attempted : int; mutable failed : int; mutable refreshes : int }

(* A reply fails when it does not decode, is an error, or carries a
   Periods row whose WCRT exceeds its period. An admission rejection
   is a valid answer. *)
let check_reply tally reply =
  tally.attempted <- tally.attempted + 1;
  match P.decode_response reply with
  | exception P.Protocol_error _ -> tally.failed <- tally.failed + 1
  | r -> (
      (match r.p_status with
      | P.Failed -> tally.failed <- tally.failed + 1
      | P.Ok | P.Unschedulable | P.Rejected -> ());
      match r.p_body with
      | P.Periods rows ->
          if List.exists (fun (a : P.assignment) -> a.a_resp > a.a_period) rows then
            tally.failed <- tally.failed + 1
      | P.Tenant_stats s -> tally.refreshes <- tally.refreshes + s.st_cache_refreshes
      | P.Metrics _ | P.No_body -> ())

(* ------------------------------------------------------------------ *)

let mix_of_workload = function
  | "daemon_steady" -> Script.Steady
  | _ -> Script.Churn

(* Each run makes [passes] passes, each on a fresh daemon, all sending
   the same requests, and reports the median figures of the half the
   host disturbed least (see [quieter_half]). *)
let passes = 8

type pass = {
  rtt : int array;  (* per timed request, ns *)
  wall_ns : int;  (* first send to last reply, less the script's own time *)
  rss_mb : float;  (* the daemon's high-water mark *)
  steal : float option;  (* host CPU time stolen during the pass, a share *)
}

type socket_run = {
  setup : float array;
  requests : P.request array;  (* what each measured daemon saw: inits, timed, stats *)
  replies : string array;  (* first pass *)
  timed_from : int;  (* index of the first timed request *)
  runs : pass array;
  tally : tally;
}

(* The first pass sends requests until its share of [seconds] is used;
   the others send the same ones. *)
let drive ctx =
  let script = Script.create ~mix:(mix_of_workload ctx.Common.workload) ~seed:ctx.seed in
  let inits = Script.init_requests script in
  let init_payloads = List.map P.encode_request inits in
  Common.ensure_dir ctx.out_dir;
  let path = Filename.concat ctx.out_dir (Printf.sprintf "d%d.sock" (Unix.getpid ())) in
  let tally = { attempted = 0; failed = 0; refreshes = 0 } in
  let compare_replies a b =
    Array.iter2
      (fun x y ->
        tally.attempted <- tally.attempted + 1;
        if x <> y then tally.failed <- tally.failed + 1)
      a b
  in
  let setups = ref [] and first_inits = ref None and daemon = ref None in
  Fun.protect ~finally:(fun () -> Option.iter kill !daemon) @@ fun () ->
  (* [setup_probes] set-ups; the last [passes] daemons run the passes *)
  let set_up () =
    let d, replies, s = start ~path ~inits:init_payloads in
    daemon := Some d;
    setups := s :: !setups;
    let replies = Array.of_list replies in
    (match !first_inits with
    | None -> first_inits := Some replies
    | Some first -> compare_replies first replies);
    d
  in
  for _ = 1 to Common.setup_probes - passes do
    stop (set_up ())
  done;
  (* made after the first pass's requests, so ids keep counting up *)
  let stats = lazy (Script.stats_requests script) in
  (* one pass on a fresh daemon: the timed requests, then the stats *)
  let timed_pass next =
    let d = set_up () in
    let out = ref [] and script_ns = ref 0 in
    let t_start = Common.now_ns () and ticks = Host.cpu_ticks () in
    let rec go () =
      let g0 = Common.now_ns () in
      match next () with
      | None -> ()
      | Some q ->
          let t0 = Common.now_ns () in
          script_ns := !script_ns + (t0 - g0);
          let reply = rpc d.fd (P.encode_request q) in
          (try ignore (P.decode_response reply) with P.Protocol_error _ -> ());
          out := (q, reply, Common.now_ns () - t0) :: !out;
          go ()
    in
    go ();
    let wall_ns = Common.now_ns () - t_start - !script_ns in
    let steal = Host.steal_share ticks (Host.cpu_ticks ()) in
    let timed = Array.of_list (List.rev !out) in
    let stats_replies =
      Array.of_list (List.map (fun q -> rpc d.fd (P.encode_request q)) (Lazy.force stats))
    in
    let rss_mb = Common.peak_rss_mb d.pid in
    stop d;
    ( timed, stats_replies,
      { rtt = Array.map (fun (_, _, ns) -> ns) timed; wall_ns; rss_mb; steal } )
  in
  (* the clock starts at the first request, after the daemon is up *)
  let deadline = lazy (Common.now_ns () + (ctx.seconds * 1_000_000_000 / passes)) in
  let first, stats1, run1 =
    timed_pass (fun () ->
        if Common.now_ns () < Lazy.force deadline then Some (Script.next script) else None)
  in
  let reply (_, r, _) = r in
  let first_replies = Array.map reply first in
  let rest =
    List.init (passes - 1) (fun _ ->
        let i = ref 0 in
        let timed, stats_replies, run =
          timed_pass (fun () ->
              if !i < Array.length first then begin
                let q, _, _ = first.(!i) in
                incr i;
                Some q
              end
              else None)
        in
        compare_replies first_replies (Array.map reply timed);
        compare_replies stats1 stats_replies;
        run)
  in
  let requests =
    Array.concat
      [ Array.of_list inits; Array.map (fun (q, _, _) -> q) first;
        Array.of_list (Lazy.force stats) ]
  in
  let replies = Array.concat [ Option.get !first_inits; first_replies; stats1 ] in
  { setup = Array.of_list !setups; requests; replies; timed_from = List.length inits;
    runs = Array.of_list (run1 :: rest); tally }

let ms_of a = Array.map Common.ms a

(* On a shared virtual machine every wake-up of the client or the
   daemon can wait while the hypervisor runs other guests, and the
   passes of one run differ mostly by how much CPU time the hypervisor
   stole during each (README.md has the figures). So a run keeps the half of its
   passes with the smallest stolen shares — whole passes, all of their
   round trips, nothing filtered per request — and reports the median
   of their figures. Where /proc does not report steal, it keeps the
   first half. *)
let quieter_half s =
  let key i = Option.value s.runs.(i).steal ~default:Float.infinity in
  let order = List.stable_sort (fun i j -> compare (key i) (key j)) (List.init passes Fun.id) in
  List.filteri (fun k _ -> k < passes / 2) order

let over_quieter s f =
  Stats.median (Array.of_list (List.map (fun i -> f s.runs.(i)) (quieter_half s)))

let print_passes s =
  let chosen = quieter_half s in
  Array.iteri
    (fun i r ->
      let lat = ms_of r.rtt in
      Printf.printf
        "%spass %d: %d requests in %.3f s, %.1f req/s, p50 %.4f ms, p99 %.4f ms, \
         daemon peak %.1f MiB, host steal %s\n"
        (if List.mem i chosen then "* " else "  ")
        (i + 1) (Array.length r.rtt) (Common.seconds r.wall_ns)
        (float_of_int (Array.length r.rtt) /. Common.seconds r.wall_ns)
        (Stats.median lat) (Stats.quantile lat 0.99) r.rss_mb
        (match r.steal with Some s -> Printf.sprintf "%.1f %%" (100. *. s) | None -> "n/a"))
    s.runs

(* Round-trip quantiles per op kind over every pass: which requests
   make the tail. *)
let print_tail s =
  let kinds = Hashtbl.create 8 in
  Array.iter
    (fun r ->
      Array.iteri
        (fun i ns ->
          let kind = P.op_name s.requests.(s.timed_from + i).q_op in
          Hashtbl.replace kinds kind
            (Common.ms ns :: Option.value (Hashtbl.find_opt kinds kind) ~default:[]))
        r.rtt)
    s.runs;
  let n = Hashtbl.fold (fun _ l acc -> acc + List.length l) kinds 0 in
  Printf.printf "round trip by op (ms): %-10s %7s %8s %8s %8s\n" "op" "share" "p50" "p99" "max";
  List.iter
    (fun (kind, l) ->
      let a = Array.of_list l in
      Printf.printf "                       %-10s %6.2f%% %8.3f %8.3f %8.3f\n" kind
        (100. *. float_of_int (Array.length a) /. float_of_int n)
        (Stats.median a) (Stats.quantile a 0.99) (Stats.quantile a 1.0))
    (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) kinds []))

let run ctx =
  let s = drive ctx in
  print_passes s;
  print_tail s;
  let tally = s.tally in
  (* the in-process replay must reproduce every socket reply byte for
     byte; the time it takes per request is what the daemon computes,
     the rest of the round trip is the wire *)
  let timed f =
    let t0 = Common.now_ns () in
    let r = f () in
    (r, Common.now_ns () - t0)
  in
  let (replayed, before_ns), gc_minor, gc_major =
    Common.gc_delta (fun () -> timed (fun () -> replay s.requests))
  in
  Array.iteri
    (fun i reply ->
      check_reply tally reply;
      if reply <> fst replayed.(i) then tally.failed <- tally.failed + 1)
    s.replies;
  let n = Array.length s.runs.(0).rtt in
  let quantile_ms q r = Stats.quantile (ms_of r.rtt) q in
  if not ctx.Common.trace then begin
    Common.print_setup s.setup;
    if not (Stats.supports ~n ~q:0.99) then
      Printf.eprintf "perfbench: %d requests do not support a p99 (needs 1000)\n" n;
    Common.finish ctx ~title:(ctx.workload ^ ": end-to-end (untraced)")
      ~attempted:tally.attempted ~failed:tally.failed
      (Catalog.fill (Catalog.end_to_end ())
         [ ("setup_s", (Stats.median s.setup, Array.length s.setup));
           ("throughput",
            (over_quieter s (fun r -> float_of_int n /. Common.seconds r.wall_ns), n));
           ("latency_p50_ms", (over_quieter s (quantile_ms 0.5), n));
           ("latency_p99_ms", (over_quieter s (quantile_ms 0.99), n));
           ("peak_rss_mb", (over_quieter s (fun r -> r.rss_mb), passes / 2)) ])
  end
  else begin
    let reg = Hydra_obs.create () in
    let t0 = Common.now_ns () in
    let traced = traced_replay reg s.requests in
    let traced_ns = Common.now_ns () - t0 in
    (* paired: untraced replays right before and right after *)
    let after, after_ns = timed (fun () -> replay s.requests) in
    let tfailed = ref 0 in
    Array.iteri
      (fun i r ->
        if r <> s.replies.(i) then incr tfailed;
        if fst after.(i) <> s.replies.(i) then incr tfailed)
      traced;
    let spans = Common.trace_spans ctx reg in
    let selfs = Spans.self_times spans in
    let overhead =
      Common.overhead ~before:before_ns ~traced:traced_ns ~after:after_ns
    in
    let ops = Array.length s.requests in
    let coverage, uncovered =
      Common.layer_table ~selfs
        ~layers:
          [ ("protocol.client", "protocol.client"); ("protocol.decode", "protocol.decode");
            ("engine.exec (self)", "engine.exec"); ("tenant.apply (self)", "server.apply");
            ("tenant.select", "server.select"); ("protocol.encode", "protocol.encode") ]
        ~idle_ns:0 ~domain_ns:(Spans.total spans "daemon.replay") ~overhead ~ops
    in
    let fops = float_of_int ops in
    let per_op name = (Common.ms (Common.self_of selfs name) /. fops, ops) in
    (* each request's round trip less its replay time *)
    let wire_ms q r =
      Stats.quantile
        (Array.mapi (fun i ns -> Common.ms (ns - snd replayed.(s.timed_from + i))) r.rtt)
        q
    in
    let mean_len a = float_of_int (Array.fold_left (fun acc x -> acc + String.length x) 0 a) /. fops in
    let counter = Catalog.counter reg in
    let selects = counter "server.select" in
    let values =
      [ ("protocol.decode_ms", per_op "protocol.decode");
        ("protocol.encode_ms", per_op "protocol.encode");
        ("protocol.client_ms", per_op "protocol.client");
        ("protocol.bytes_per_request",
         (mean_len (Array.map P.encode_request s.requests), ops));
        ("protocol.bytes_per_reply", (mean_len s.replies, ops));
        ("engine.exec_ms", per_op "engine.exec");
        ("engine.selects_per_request", (selects /. counter "server.requests", ops));
        ("engine.batches", (counter "server.batches", ops));
        ("tenant.apply_ms", per_op "server.apply");
        ("tenant.select_ms", per_op "server.select");
        ("tenant.warm_select_ratio",
         (counter "server.select.warm" /. selects, int_of_float selects));
        ("tenant.cache.refreshes", (float_of_int tally.refreshes, 1));
        ("daemon.wire_p50_ms", (over_quieter s (wire_ms 0.5), n));
        ("daemon.wire_p99_ms", (over_quieter s (wire_ms 0.99), n));
        ("gc.minor_words_per_op", (gc_minor /. fops, ops));
        ("gc.major_collections", (float_of_int gc_major /. fops, ops));
        ("trace.overhead", (overhead, 1)); ("trace.coverage", (coverage, 1)) ]
      @ Catalog.analysis_counters reg ~ops
    in
    Common.finish ctx ~title:(ctx.workload ^ ": per-layer (traced)")
      ~attempted:(tally.attempted + (2 * ops))
      ~failed:(tally.failed + max !tfailed uncovered)
      (Catalog.fill (Catalog.per_layer ()) values)
  end
