type meta = {
  id : string;
  title : string;
  rationale : string;
}

let all =
  [ { id = "D1";
      title = "wall clock / ambient entropy";
      rationale =
        "Unix.gettimeofday, Sys.time, Random.self_init and the global-state \
         Random.* functions read state outside the task-set seed, so results \
         stop being reproducible; route timing through Hydra_obs (lib/obs) \
         and randomness through Taskgen.Rng. Flagged everywhere except \
         lib/obs." };
    { id = "D2";
      title = "stdout writes in library code";
      rationale =
        "print_*, Printf.printf, Format.printf and Format.std_formatter \
         inside lib/ bypass the determinism contract: results must flow \
         through a formatter argument or a returned value so stdout stays \
         byte-identical across --jobs (doc/PARALLELISM.md). Under \
         lib/server the rule also covers stderr (prerr_*, *.eprintf, \
         Format.err_formatter): a long-running daemon must log through the \
         rate-limited Hydra_obs.Log so operator output stays throttled and \
         structured (doc/OBSERVABILITY.md)." };
    { id = "D3";
      title = "hash-order-sensitive Hashtbl.fold/iter";
      rationale =
        "Hashtbl.fold and Hashtbl.iter visit buckets in an unspecified \
         order; building a list or string from them leaks that order into \
         results. Sort adjacently (same expression chain), or mark a \
         genuinely commutative fold with [@lint.allow \"D3\"]." };
    { id = "D4";
      title = "module-level mutable state in lib/";
      rationale =
        "A toplevel ref/Hashtbl/Buffer/Queue/Stack/Array/Bytes is shared by \
         every domain running under Parallel.Pool and turns library calls \
         into data races; use Atomic, Domain.DLS, or pass state explicitly." };
    { id = "D5";
      title = "polymorphic compare/= on float operands";
      rationale =
        "Polymorphic compare and (=) on floats are order-fragile around NaN \
         and allocate through the generic runtime path; use Float.compare / \
         Float.equal at float-typed analysis call sites." };
    { id = "D6";
      title = "heap allocation in [@lint.hot] code";
      rationale =
        "A binding marked [@lint.hot] (the simulator's per-event dispatch \
         path — lib/sim/engine.ml, lib/sim/calendar.ml) promises to run \
         allocation-free: closures, tuples, records, boxed constructors, \
         polymorphic variants with arguments, array literals, lazy blocks \
         and ref cells in its body break the promise and become GC \
         pressure multiplied by the event count (doc/SIMULATOR.md); hoist \
         the allocation into setup code or drop the annotation." };
    { id = "D7";
      title = "pool-closure race (interprocedural)";
      rationale =
        "A closure passed to Parallel.Pool.map/map_array/map_list runs on \
         worker domains; anything it transitively calls that touches \
         module-level mutable state (ref/Hashtbl/Buffer/...) is a data race \
         and breaks the jobs-independence contract (doc/PARALLELISM.md). \
         Atomic, Mutex, Domain.DLS and the lib/obs instrumentation sink are \
         sanctioned; deliberate state is sanctioned cross-module by \
         [@lint.allow \"D7\"] on the state binding itself." };
    { id = "D8";
      title = "transitive hot-path allocation (interprocedural)";
      rationale =
        "D6 extended over the full callee cone of every [@lint.hot] \
         binding: a callee that heap-allocates — however many calls away — \
         breaks the allocation-free promise just as surely as an allocation \
         in the body. Callees marked [@lint.cold] are sanctioned \
         allocation points; callees the parse-only resolver cannot see \
         (externals, calls through parameters) are reported as \
         \"cannot prove\" notes rather than silently passing." };
    { id = "D9";
      title = "polymorphic min/max in the integer analysis";
      rationale =
        "Stdlib's min and max are polymorphic: every use is a call into \
         Stdlib, whose generic compare (caml_lessequal) runs through OCaml \
         5's caml_c_call, where Int.min and Int.max compile to one compare. \
         In lib/rtsched and lib/hydra every time is an int and the Eq. 6-8 \
         kernel runs them millions of times per sweep, so min, max, \
         Stdlib.min and Stdlib.max are flagged there, applied or passed as \
         a value; no work counter sees the cost, only the wall clock \
         (doc/PERFORMANCE.md)." } ]

let find id = List.find_opt (fun m -> m.id = id) all

let pp_catalog ppf () =
  List.iter
    (fun m ->
      Format.fprintf ppf "%s  %s@.    %a@." m.id m.title
        Format.pp_print_text m.rationale)
    all
