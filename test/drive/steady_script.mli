(** The deterministic steady request script of the live-daemon smokes:
    6 tenants of 24 RT and 8 security tasks on 4 cores, then 300
    arrivals, reselects and queries (seed 42). *)

val prefix :
  ?shutdown:bool -> int -> Hydra_server.Protocol.request list
(** The first [n] requests of the script, then (unless
    [~shutdown:false]) a [Shutdown] to the daemon with the next id. *)
