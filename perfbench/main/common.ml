(* Harness pieces shared by the workloads: the run context, the timed
   loop, set-up probes, GC deltas and the traced run's layer table. *)

type ctx = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  nproc : int;
  jobs : int;  (* worker domains: nproc for dse and rover, the serve default for the daemon *)
  out_dir : string;  (* trace files; inside the checkout *)
  started : (int * int) option;  (* Host.cpu_ticks at start *)
}

let now_ns = Hydra_obs.now_ns
let ms ns = float_of_int ns /. 1e6
let seconds ns = float_of_int ns /. 1e9
let default_seed = 42
let setup_probes = 9

(* Runs [f] back to back until [seconds] have passed and at least
   [min_reps] runs are done; returns (wall ns, result) per run. *)
let repeat ~seconds ~min_reps f =
  let deadline = now_ns () + (seconds * 1_000_000_000) in
  let rec go acc k =
    if k >= min_reps && now_ns () >= deadline then List.rev acc
    else begin
      let t0 = now_ns () in
      let r = f () in
      go ((now_ns () - t0, r) :: acc) (k + 1)
    end
  in
  go [] 0

(* Set-up of dse and rover is the time from process start to the first
   timed call. It is measured [setup_probes] times per run in fresh
   processes of this executable, which start as a run does and print
   "ready" where the run would start timing. *)
let probe_setup ctx =
  Array.init setup_probes (fun _ ->
      let rd, wr = Unix.pipe ~cloexec:true () in
      let t0 = now_ns () in
      let pid =
        Unix.create_process Sys.executable_name
          [| Sys.executable_name; "--probe-setup"; "--workload"; ctx.workload;
             "--seed"; string_of_int ctx.seed |]
          Unix.stdin wr Unix.stderr
      in
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let line = In_channel.input_line ic in
      let t1 = now_ns () in
      In_channel.close ic;
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 when line = Some "ready" -> ()
      | _ -> failwith "set-up probe failed");
      seconds (t1 - t0))

let print_setup samples =
  let ms = Array.map (fun s -> s *. 1e3) samples in
  Printf.printf "set-up: %d samples, min %.3f ms, median %.3f ms, max %.3f ms\n"
    (Array.length ms) (Array.fold_left Float.min Float.infinity ms) (Stats.median ms)
    (Array.fold_left Float.max 0. ms)

let peak_rss_mb pid =
  match Host.peak_rss_kib pid with
  | Some kib -> float_of_int kib /. 1024.
  | None -> failwith "peak RSS unavailable (/proc/<pid>/status has no VmHWM)"

(* Minor words allocated and major collections completed by [f],
   summed over every domain of this process. *)
let gc_delta f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  (r, s1.Gc.minor_words -. s0.Gc.minor_words,
   s1.Gc.major_collections - s0.Gc.major_collections)

(* Tracing overhead, paired: the traced pass against the mean of the
   untraced passes right before and right after it, so a drift in host
   speed across the run cancels. *)
let overhead ~before ~traced ~after =
  (float_of_int traced /. (float_of_int (before + after) /. 2.)) -. 1.

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

(* Writes the registry's spans as a Chrome trace (the same view as
   --trace-out) and reads them back: the layer numbers are computed
   from the very file an operator would open. *)
let trace_spans ctx reg =
  ensure_dir ctx.out_dir;
  let path =
    Filename.concat ctx.out_dir
      (Printf.sprintf "%s-seed%d.trace.json" ctx.workload ctx.seed)
  in
  Hydra_obs.write_chrome_trace reg ~path;
  Printf.printf "trace: %s\n" path;
  Spans.of_chrome_trace (In_channel.with_open_bin path In_channel.input_all)

let self_of selfs name = Option.value (List.assoc_opt name selfs) ~default:0

(* The traced run must account for this share of its domain-time. *)
let min_coverage = 0.95

(* The per-layer share table of a traced run. [domain_ns] is the
   traced domain-time: every domain's wall time inside the traced
   region. Returns the coverage (named layers plus pool idle over
   domain-time) and the failed operations: all [ops] of the traced run
   when the coverage is below [min_coverage], else none. *)
let layer_table ~selfs ~layers ~idle_ns ~domain_ns ~overhead ~ops =
  let covered =
    List.fold_left (fun acc (_, name) -> acc + self_of selfs name) idle_ns layers
  in
  let share ns = 100. *. float_of_int ns /. float_of_int (max 1 domain_ns) in
  Printf.printf "per-layer share of traced domain-time (%.1f ms)\n" (ms domain_ns);
  Printf.printf "  %-28s %12s %8s\n" "layer" "self ms" "share";
  List.iter
    (fun (label, name) ->
      let ns = self_of selfs name in
      Printf.printf "  %-28s %12.3f %7.2f%%\n" label (ms ns) (share ns))
    layers;
  Printf.printf "  %-28s %12.3f %7.2f%%\n" "pool.idle" (ms idle_ns) (share idle_ns);
  Printf.printf "  %-28s %12.3f %7.2f%%\n" "(not covered)"
    (ms (domain_ns - covered)) (share (domain_ns - covered));
  let coverage = float_of_int covered /. float_of_int (max 1 domain_ns) in
  Printf.printf "trace.coverage = %.4f   trace.overhead = %.4f\n" coverage overhead;
  if coverage >= min_coverage then (coverage, 0)
  else begin
    Printf.eprintf "perfbench: trace.coverage %.4f is below %.2f\n" coverage min_coverage;
    (coverage, ops)
  end

let stamp ctx ~samples =
  Printf.printf
    "{\"stamp\":{\"workload\":\"%s\",\"seed\":%d,\"seconds\":%d,\"trace\":%d,\
     \"nproc\":%d,\"jobs\":%d,\"ocaml\":\"%s\",\"cpu\":\"%s\",\"host_steal\":%s},\
     \"samples\":{%s}}\n"
    ctx.workload ctx.seed ctx.seconds (if ctx.trace then 1 else 0) ctx.nproc
    ctx.jobs Sys.ocaml_version
    (String.escaped (Host.cpu_model ()))
    (match Host.steal_share ctx.started (Host.cpu_ticks ()) with
    | Some share -> Printf.sprintf "%.4f" share
    | None -> "null")
    (String.concat ","
       (List.map (fun (m : Metric.t) -> Printf.sprintf "\"%s\":%d" m.name m.samples)
          samples))

(* With the default seed, [got] must equal the pinned [file]; every
   other seed passes. *)
let check_pin ctx ~file got =
  ctx.seed <> default_seed
  ||
  let expected =
    try In_channel.with_open_bin file In_channel.input_all with Sys_error _ -> ""
  in
  got = expected
  || begin
       Printf.eprintf "perfbench: aggregates differ from %s:\n%s" file got;
       false
     end

(* Prints the stamp, the table and the final result line. *)
let finish ctx ~title ~attempted ~failed metrics =
  stamp ctx ~samples:metrics;
  Metric.print_table ~title metrics;
  Printf.printf "failed_frac = %d / %d = %.6f\n" failed attempted
    (float_of_int failed /. float_of_int (max 1 attempted));
  print_string
    (Metric.result_line
       ~correct:(failed = 0 && attempted > 0)
       ~attempted:(max 1 attempted) ~failed metrics);
  print_newline ()

(* A workload of fixed passes (dse, rover). [check_pass] runs and
   checks one pass and returns (operations, failed operations). The
   untraced run reports medians over passes. The traced run gets the
   wall time of the last untraced pass, [rerun] (one more untraced
   pass, after the traced one, returning its wall time) and the GC
   deltas of the untraced passes; it returns (operations, failed
   operations, metrics). *)
let run_passes ctx ~check_pass ~traced =
  let setup = if ctx.trace then [||] else probe_setup ctx in
  let passes, minor, major =
    gc_delta (fun () -> repeat ~seconds:ctx.seconds ~min_reps:3 check_pass)
  in
  let attempted = List.fold_left (fun acc (_, (k, _)) -> acc + k) 0 passes in
  let failed = List.fold_left (fun acc (_, (_, f)) -> acc + f) 0 passes in
  let walls = Array.of_list (List.map (fun (w, _) -> ms w) passes) in
  let n = Array.length walls in
  if not ctx.trace then begin
    print_setup setup;
    let tput =
      Array.of_list (List.map (fun (w, (k, _)) -> float_of_int k /. seconds w) passes)
    in
    finish ctx ~title:(ctx.workload ^ ": end-to-end (untraced)") ~attempted ~failed
      (Catalog.fill (Catalog.end_to_end ())
         [ ("setup_s", (Stats.median setup, Array.length setup));
           ("throughput", (Stats.median tput, n));
           ("latency_p50_ms", (Stats.median walls, n));
           ("latency_p99_ms", (Stats.quantile walls 0.99, n));
           ("peak_rss_mb", (peak_rss_mb (Unix.getpid ()), 1)) ])
  end
  else begin
    let extra = ref (0, 0) in
    let rerun () =
      let t0 = now_ns () in
      extra := check_pass ();
      now_ns () - t0
    in
    let ops, tfailed, metrics =
      traced ~before:(fst (List.nth passes (n - 1))) ~rerun ~gc:(minor, major, attempted)
    in
    let xn, xf = !extra in
    finish ctx ~title:(ctx.workload ^ ": per-layer (traced)")
      ~attempted:(attempted + ops + xn) ~failed:(failed + tfailed + xf) metrics
  end
