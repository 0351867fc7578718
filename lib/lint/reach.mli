(** Phase 2 reachability rules over a linked {!Callgraph.t}:

    - {b D7} pool-closure race detector: nothing transitively
      reachable from a closure passed to [Parallel.Pool.map] /
      [map_array] / [map_list] may touch unsanctioned module-level
      mutable state (Atomic / Mutex / Domain.DLS and the lib/obs
      instrumentation sink, whose tables sit behind one mutex, are
      sanctioned;
      [[@lint.allow "D7"]] on the state binding sanctions every path
      reaching it, cross-module).
    - {b D8} transitive hot-path allocation: rule D6 extended over the
      full callee cone of every [[@lint.hot]] binding; a
      [[@lint.cold]] callee is a sanctioned allocation point.

    Both rules never guess: an unresolvable callee becomes a "cannot
    prove" note rather than a silent pass or a spurious finding. *)

val check : Callgraph.t -> Finding.t list * Finding.t list
(** [(findings, notes)], each sorted by {!Finding.order}. Findings are
    violations (gate the exit code); notes are "cannot prove"
    diagnostics (informational, never affect the exit code). *)
