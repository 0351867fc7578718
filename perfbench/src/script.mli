(** Seeded request scripts for the admission-daemon workloads.

    A script is a pure function of its mix and seed: the benchmark
    drives a live daemon with it and replays the identical requests
    in-process to check every reply. It never looks at replies, so it
    only issues edits that the daemon admits on these light tasksets
    (per-task RT utilization of at most 3 %, which every core admits).

    Each of 6 to 8 tenants starts at M = 4 with 24 RT and 8 security
    tasks. Every tenant is re-initialized with a fresh taskset (new
    WCETs and periods) after {!reinit_every} of its own requests, so
    tenant size — and with it the cost of a request — is stationary
    over a run of any length, and a run samples many tasksets. *)

type mix =
  | Steady
      (** RT and security arrivals (15 % each), reselects (40 %) and
          queries (30 %): every edit keeps the warm floors, so
          selections stay on the warm path *)
  | Churn
      (** RT and security arrivals and leaves (15 % each; a leave
          becomes a query when two or fewer tasks of its kind are left),
          core-count changes to 2-4 cores (8 %), reselects (22 %) and
          queries (10 %): leaves and core-count changes drop the warm
          floors and force cold selections *)
(** Both mixes use the op weights of [bench/server_record.ml], whose
    runs are the warm-select ratios in [BENCH_server.json]. *)

type t

val create : mix:mix -> seed:int -> t

val init_requests : t -> Hydra_server.Protocol.request list
(** One [Init] per tenant. Call once, before {!next}. *)

val next : t -> Hydra_server.Protocol.request
(** The next request; ids count up from the last init. *)

val stats_requests : t -> Hydra_server.Protocol.request list
(** One [Stats] request per tenant, for the end of a run. *)

val sizes : t -> (int * int) list
(** Resident RT and security task counts per tenant after the requests
    issued so far (assuming every edit is admitted). *)

val reinit_every : int
