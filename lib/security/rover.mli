(** The rover case study of Sec. 5.1: the exact task parameters the
    authors measured on their Raspberry-Pi-3 rover, plus the two
    monitored stores (image data-store and kernel-module table) and
    the platform facts of Table 2. Times are milliseconds (= ticks).

    RT tasks: navigation (C=240, T=500) and camera (C=1120, T=5000),
    implicit deadlines, rate-monotonic, total RT utilization 0.7040.
    Security tasks: Tripwire over the image store (C=5342) and the
    kernel-module checker (C=223), both with [T_max] = 10000, giving a
    minimum total utilization of 1.2605 on 2 active cores. *)

type platform_fact = { fact_artifact : string; fact_value : string }

val table2 : platform_fact list
(** The rows of Table 2 (platform, CPU, memory, OS, kernel, RT patch,
    flags, boot parameters, WCET measurement, partitioning tool). *)

val pp_table2 : Format.formatter -> unit -> unit

val n_cores : int
(** 2 — the paper activates only core0 and core1. *)

val taskset : unit -> Rtsched.Task.taskset
(** The four-task rover taskset described above. RT ids: 0 =
    navigation, 1 = camera; security ids: 0 = Tripwire, 1 = kmod
    checker (Tripwire has the higher security priority). *)

val rt_assignment : unit -> int array
(** Navigation on core 0, camera on core 1 — the paper's explicit
    pinning via the Linux [taskset] utility (Fig. 1). *)

val tripwire_sec_id : int
val kmod_sec_id : int

val image_store : ?images:int -> ?bytes_per_image:int -> unit -> Filesystem.t
(** The camera image data-store (default 64 synthetic images of 4 KiB;
    the real store holds 3280x2464 stills, but only the count of
    scan regions affects detection timing). *)

val module_table : unit -> Kmod_checker.table
(** Live kernel-module table preloaded with {!Kmod_checker.default_profile}. *)

val image_regions : int
(** Scan regions used by the Tripwire task (one per image by default
    store size). *)

val kmod_regions : int
(** Scan regions used by the kernel-module checker. *)
