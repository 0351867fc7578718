(** What every result is stamped with: the machine it ran on. *)

val nproc : unit -> int
(** Cores available to the runtime ([Domain.recommended_domain_count]);
    the benchmark never runs more worker domains than this. *)

val cpu_model : unit -> string
(** First ["model name"] of /proc/cpuinfo, or ["unknown"]. *)

val cpu_ticks : unit -> (int * int) option
(** Machine-wide CPU time since boot, in clock ticks, from the first
    line of /proc/stat: (stolen by the hypervisor, all). [None] when
    /proc does not report it. *)

val steal_share : (int * int) option -> (int * int) option -> float option
(** [steal_share before after]: the share of CPU time stolen between
    two {!cpu_ticks} readings. On a shared virtual machine this is the
    host noise that moves every timing. *)

val peak_rss_kib : int -> int option
(** High-water resident set ([VmHWM]) of a live process, in KiB; [None]
    when /proc does not report it. *)
