(* The repository benchmark. Run from the root of a checkout:

     bash perfbench/run.sh --workload dse --seed 1 --seconds 15 --trace 0

   --trace 0 measures the end-to-end metrics; --trace 1 measures the
   same work untraced, then repeats it once traced and reports the
   per-layer metrics. The last stdout line is the JSON result. See
   perfbench/README.md. *)

let workloads =
  [ ("dse", Dse.run); ("rover", Rover.run); ("daemon_steady", Daemon_load.run);
    ("daemon_churn", Daemon_load.run) ]

let () =
  let workload = ref "" and seed = ref Common.default_seed in
  let seconds = ref 15 and trace = ref 0 and probe = ref false in
  let usage = "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload,
       " dse | rover | daemon_steady | daemon_churn");
      ("--seed", Arg.Set_int seed, " input seed (default 42)");
      ("--seconds", Arg.Set_int seconds, " measured seconds per run (default 15)");
      ("--trace", Arg.Set_int trace, " 1 = per-layer metrics from a traced run");
      ("--probe-setup", Arg.Set probe, " (internal) set-up probe of a run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let run =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload ^ "\n" ^ usage);
        exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let nproc = Host.nproc () in
  (* dse and rover use every core; the daemon keeps its serve default *)
  let jobs =
    if String.starts_with ~prefix:"daemon" !workload then Parallel.Pool.default_jobs ()
    else nproc
  in
  let ctx =
    { Common.workload = !workload; seed = !seed; seconds = !seconds;
      trace = !trace = 1; nproc; jobs; out_dir = "perfbench/_out";
      started = Host.cpu_ticks () }
  in
  (* a set-up probe stops where a run would start timing *)
  if !probe then print_endline "ready" else run ctx
