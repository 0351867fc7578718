module Task = Rtsched.Task

type platform_fact = { fact_artifact : string; fact_value : string }

let table2 =
  [ { fact_artifact = "Platform";
      fact_value = "1.2 GHz 64-bit Broadcom BCM2837 (simulated)" };
    { fact_artifact = "CPU"; fact_value = "ARM Cortex-A53 (simulated)" };
    { fact_artifact = "Memory"; fact_value = "1 Gigabyte" };
    { fact_artifact = "Operating System";
      fact_value = "Debian Linux (Raspbian Stretch Lite)" };
    { fact_artifact = "Kernel version"; fact_value = "Linux Kernel 4.9" };
    { fact_artifact = "Real-time patch";
      fact_value = "PREEMPT_RT 4.9.80-rt62-v7+" };
    { fact_artifact = "Kernel flags";
      fact_value = "CONFIG_PREEMPT_RT_FULL enabled" };
    { fact_artifact = "Boot parameters";
      fact_value = "maxcpus=2, force_turbo=1, arm_freq=700, arm_freq_min=700" };
    { fact_artifact = "WCET measurement";
      fact_value = "ARM cycle counter registers (here: simulator clock)" };
    { fact_artifact = "Task partition";
      fact_value = "Linux taskset (here: Rtsched.Partition best-fit)" } ]

let pp_table2 ppf () =
  Format.fprintf ppf "@[<v>Table 2: Summary of the Evaluation Platform@ @ ";
  List.iter
    (fun f ->
      Format.fprintf ppf "%-18s %s@ " (f.fact_artifact ^ ":") f.fact_value)
    table2;
  Format.fprintf ppf "@]"

let n_cores = 2

let tripwire_sec_id = 0
let kmod_sec_id = 1

let taskset () =
  let navigation =
    Task.make_rt ~name:"navigation" ~id:0 ~prio:0 ~wcet:240 ~period:500 ()
  in
  let camera =
    Task.make_rt ~name:"camera" ~id:1 ~prio:1 ~wcet:1120 ~period:5000 ()
  in
  let tripwire =
    Task.make_sec ~name:"tripwire" ~id:tripwire_sec_id ~prio:0 ~wcet:5342
      ~period_max:10000 ()
  in
  let kmod =
    Task.make_sec ~name:"kmod-checker" ~id:kmod_sec_id ~prio:1 ~wcet:223
      ~period_max:10000 ()
  in
  Task.make_taskset ~n_cores ~rt:[ navigation; camera ]
    ~sec:[ tripwire; kmod ]

(* The paper pins navigation to core0 and camera to core1 with the
   Linux taskset utility (Fig. 1); best-fit would pack both onto one
   core, so we reproduce the explicit pinning instead. *)
let rt_assignment () = [| 0; 1 |]

let image_regions = 64
let kmod_regions = 12

let image_store ?(images = image_regions) ?(bytes_per_image = 4096) () =
  let fs = Filesystem.create () in
  Filesystem.populate_images fs ~count:images ~bytes_per_file:bytes_per_image;
  fs

let module_table () =
  Kmod_checker.create_table (Kmod_checker.default_profile ())
