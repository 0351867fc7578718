(** Unix-domain-socket front end of the admission-control daemon
    (doc/SERVER.md; exposed as [hydra_c serve]).

    Serves one client connection at a time (further clients queue in
    the listen backlog) — the parallelism that matters is tenant
    sharding inside {!Engine}. Per connection, frames are read in
    batches: block for one request, then drain whatever is already
    deliverable (up to 64 frames) so concurrent updates from a
    pipelining client coalesce into one {!Engine.exec_batch} call; a
    lockstep client always gets one-request batches, which is what
    makes the serve-smoke fixture batching-invariant.

    [Shutdown] and [Obs_snapshot] requests are handled here, not in
    the engine. [Obs_snapshot] answers from the live registry and
    deliberately leaves {e no} footprint in it: it skips the engine
    (so [server.batches]/[server.requests]/[server.req.*] do not
    move) and the [server.connections] counter is lazy — bumped at
    a connection's first engine-bound request — so a scrape-only
    connection is invisible and a live [obs-report --connect] summary
    matches the shutdown [--metrics-out] snapshot exactly
    (doc/OBSERVABILITY.md, gated in CI). Malformed frames produce an
    [error] response with [id = -1] so pairing survives.

    {b Tracing.} With [trace] (and a registry), the daemon mints one
    {!Hydra_obs.Trace_ctx} per request at accept: the whole request
    becomes a ["server.request"] root span timed from frame arrival to
    reply, decoding a ["server.decode"] child, and the context rides
    through {!Engine.exec_batch} into cross-domain flow arrows and
    ["server.apply"]/["server.select"] worker spans. Without [trace]
    (the default) no context is minted and nothing is recorded; either
    way [--metrics-out] stays byte-identical.

    {b Flight recorder.} Always on: every batch drops compact
    Accept/Decode/Reply (and engine-side Shard/Coalesce/Select)
    events into the engine's fixed-size lock-free ring
    ({!Engine.flight}). The ring is dumped as JSONL — to
    [flight_path], default [socket_path ^ ".flight.jsonl"] — on
    SIGUSR1, on an uncaught crash, on a batch slower than
    [slow_request_ms], and at shutdown when [flight_path] was given
    explicitly. Never appears in metrics snapshots.

    Request timing uses the monotonic {!Hydra_obs.now_ns} clock and
    lands only in the flight ring's [Reply] events and the request
    spans, never in the registry, so a daemon's snapshot is
    byte-identical across [--jobs] like every other. Operator
    messages (slow batches, dump notices, connection errors) go
    through the rate-limited structured {!Hydra_obs.Log} — the only
    stderr channel hydra_lint permits under [lib/server]. *)

type config = {
  socket_path : string;
  jobs : int;  (** worker domains for tenant sharding (default 1) *)
  trace : bool;
      (** trace every request (default [false]; [serve] sets it iff
          [--trace-out] is given) *)
  slow_request_ms : int;
      (** batches slower than this dump the flight ring and log a
          warning; 0 (default) disables *)
  flight_path : string option;
      (** flight-dump destination; [None] (default) derives
          [socket_path ^ ".flight.jsonl"] and dumps only on
          signal/crash/slow, [Some p] also dumps at shutdown *)
}

val default_config : socket_path:string -> config

val serve :
  ?obs:Hydra_obs.t -> ?config:config -> ?on_ready:(unit -> unit) ->
  unit -> unit
(** Bind the socket (unlinking any stale file), call [on_ready], and
    accept until a [Shutdown] request arrives or the process gets
    SIGTERM or SIGINT. A signal stops the daemon after the batch in
    hand, at the next safe point: between batches, on an interrupted
    accept, or on an interrupted frame read (so a connected but idle
    client cannot hold it open); [serve] then returns as after a
    [Shutdown]. The handler re-arms the signal's default action, so a
    second SIGTERM or SIGINT kills the process at once. SIGPIPE is
    ignored while serving, so a client that hangs up before reading
    its reply costs an [io_error] log line, not the process. Always
    unlinks the socket, restores the four handlers and stops the
    engine on the way out. *)
