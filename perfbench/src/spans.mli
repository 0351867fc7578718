(** Span arithmetic over a Chrome trace-event document — the file
    [Hydra_obs.write_chrome_trace] writes and Perfetto opens — so the
    per-layer numbers are computed from the same artifact an operator
    looks at. *)

type span = {
  name : string;
  tid : int;  (** recording domain *)
  start_ns : int;
  dur_ns : int;
}

val of_chrome_trace : string -> span list
(** Every complete (["ph":"X"]) event of a trace-event document, in
    file order: the [Hydra_obs.span] events and the request-scoped
    [Hydra_obs.trace_span] events alike. Microsecond timestamps are
    converted back to integer nanoseconds.
    @raise Hydra_obs.Json.Error on malformed input. *)

val self_times : span list -> (string * int) list
(** Per span name, the summed self time in nanoseconds, sorted by
    name: each span's duration minus the part of it that its direct
    children cover. Nesting is interval containment on one [tid]; spans
    on different domains never nest. *)

val total : span list -> string -> int
(** Summed duration of the spans with this name. *)
