(* Accept loop of the admission-control daemon. One client is served
   at a time (clients queue in the listen backlog): the protocol is
   request/response over a Unix-domain socket, and the parallelism
   that matters — sharding tenant groups across domains — lives in
   {!Engine}, not in connection handling.

   Observability plumbing lives here too: trace contexts are minted
   per request at accept (when tracing is on) and ride through the
   engine, every batch drops breadcrumbs into the engine's always-on
   flight recorder, and the [obs_snapshot] protocol op is answered
   from the live registry without touching it. *)

type config = {
  socket_path : string;
  jobs : int;
  trace : bool;
  slow_request_ms : int;
  flight_path : string option;
}

let default_config ~socket_path =
  { socket_path; jobs = 1; trace = false; slow_request_ms = 0;
    flight_path = None }

(* SIGUSR1 only sets this flag; the dump itself runs on the accept
   loop at the next safe point (between batches or on an interrupted
   accept), never inside the signal handler. *)
let dump_requested = Atomic.make false

(* SIGTERM and SIGINT set this one, honoured at the same safe points
   and by an interrupted frame read: the daemon then stops as on a
   [shutdown] request. *)
let stop_requested = Atomic.make false

let stopping () = Atomic.get stop_requested

(* Everything a connection handler needs, wired once per [serve]. *)
type server = {
  engine : Engine.t;
  obs : Hydra_obs.t option;
  flight : Hydra_obs.Flight.t;  (* the engine's ring *)
  trace : bool;
  log : Hydra_obs.Log.t;
  slow_ns : int;  (* 0 = slow-request detection off *)
  flight_file : string;
}

let dump_flight srv ~reason =
  match Hydra_obs.Flight.dump_to srv.flight ~path:srv.flight_file with
  | () ->
      Hydra_obs.Log.log srv.log "flight_dump"
        [ ("path", srv.flight_file); ("reason", reason);
          ("events", string_of_int (Hydra_obs.Flight.recorded srv.flight)) ]
  | exception Sys_error m ->
      Hydra_obs.Log.log srv.log "flight_dump_failed"
        [ ("path", srv.flight_file); ("error", m) ]

let check_dump_signal srv =
  if Atomic.get dump_requested then begin
    Atomic.set dump_requested false;
    dump_flight srv ~reason:"sigusr1"
  end

let max_batch = 64

(* Read the frames of one batch: block for the first, then keep
   draining frames that are already deliverable (poll with a zero
   timeout) up to [max_batch] — so a lockstep client gets one-request
   batches while a pipelining client gets its concurrent updates
   coalesced. Returns the raw payloads and whether EOF was seen. *)
let read_batch fd =
  match Protocol.read_frame ~stop:stopping fd with
  | None -> ([], true)
  | Some first ->
      let rec drain acc k =
        if k >= max_batch then (List.rev acc, false)
        else
          match Unix.select [ fd ] [] [] 0.0 with
          | [ _ ], _, _ -> (
              match Protocol.read_frame ~stop:stopping fd with
              | None -> (List.rev acc, true)
              | Some s -> drain (s :: acc) (k + 1))
          | _ -> (List.rev acc, false)
          | exception Unix.Unix_error (Unix.EINTR, _, _) ->
              (List.rev acc, false)
      in
      drain [ first ] 1

(* Decode one payload; a malformed frame still yields exactly one
   (error) response so request/response pairing survives. *)
let decode payload =
  match Protocol.decode_request payload with
  | q -> Ok q
  | exception Protocol.Protocol_error m -> Error m

(* Shutdown and obs_snapshot never reach the engine: they answer from
   daemon state, and keeping them out of [exec_batch] keeps them out
   of the server.* workload counters — a scrape must not perturb the
   metrics it returns. *)
let is_daemon_op (op : Protocol.op) =
  match op with
  | Protocol.Shutdown | Protocol.Obs_snapshot -> true
  | _ -> false

let status_code (r : Protocol.response) =
  match r.p_status with
  | Protocol.Ok -> 0
  | Protocol.Unschedulable -> 1
  | Protocol.Rejected -> 2
  | Protocol.Failed -> 3

let obs_snapshot_resp srv (q : Protocol.request) =
  match srv.obs with
  | None ->
      Protocol.error ~id:q.q_id ~tenant:q.q_tenant
        "no metrics registry attached to this daemon"
  | Some o ->
      Protocol.ok ~id:q.q_id ~tenant:q.q_tenant
        (Metrics (Hydra_obs.Snapshot.to_json o))

(* [counted] is the connection's lazy connection counter: it is bumped
   at the first engine-bound request, so scrape-only and shutdown-only
   connections leave no registry footprint. *)
let handle_batch srv counted payloads =
  let obs = srv.obs in
  let t0 = Hydra_obs.now_ns () in
  Hydra_obs.Flight.record srv.flight ~ts:t0 ~kind:Hydra_obs.Flight.Accept
    ~tenant:(-1) ~a:(List.length payloads) ~b:0;
  (* trace contexts are minted here, at accept, one per request —
     daemon-level ops included *)
  let ctxs =
    List.map
      (fun _ -> if srv.trace then Some (Hydra_obs.Trace_ctx.root ()) else None)
      payloads
  in
  let decoded =
    List.map2
      (fun ctx payload ->
        let dctx = Option.map Hydra_obs.Trace_ctx.child ctx in
        let r =
          Hydra_obs.trace_span obs dctx "server.decode" (fun () ->
              decode payload)
        in
        Hydra_obs.Flight.record srv.flight ~ts:(Hydra_obs.now_ns ())
          ~kind:Hydra_obs.Flight.Decode ~tenant:(-1) ~a:0
          ~b:(match r with Ok _ -> 0 | Error _ -> 1);
        r)
      ctxs payloads
  in
  (* daemon-level ops are split out; everything else goes to the
     engine in one batch, each request riding with its context *)
  let engine_reqs, engine_ctxs =
    let rs = ref [] and cs = ref [] in
    List.iter2
      (fun ctx d ->
        match d with
        | Ok (q : Protocol.request) when not (is_daemon_op q.q_op) ->
            rs := q :: !rs;
            cs := ctx :: !cs
        | _ -> ())
      ctxs decoded;
    (List.rev !rs, List.rev !cs)
  in
  if engine_reqs <> [] && not !counted then begin
    counted := true;
    Hydra_obs.incr obs "server.connections"
  end;
  let engine_resps =
    ref
      (if engine_reqs = [] then []
       else
         Engine.exec_batch ~ctxs:(Array.of_list engine_ctxs) srv.engine
           engine_reqs)
  in
  let next_engine_resp () =
    match !engine_resps with
    | r :: rest ->
        engine_resps := rest;
        r
    | [] -> assert false
  in
  let stop = ref false in
  let responses =
    List.map
      (function
        | Error m -> Protocol.error ~id:(-1) ~tenant:"" m
        | Ok (q : Protocol.request) -> (
            match q.q_op with
            | Protocol.Shutdown ->
                stop := true;
                Protocol.ok ~id:q.q_id ~tenant:q.q_tenant Protocol.No_body
            | Protocol.Obs_snapshot -> obs_snapshot_resp srv q
            | _ -> next_engine_resp ()))
      decoded
  in
  let t1 = Hydra_obs.now_ns () in
  let dt = t1 - t0 in
  (* one Reply breadcrumb and one root span per request; the root span
     covers accept through reply, so child spans nest under it *)
  List.iter2
    (fun ctx (r : Protocol.response) ->
      Hydra_obs.Flight.record srv.flight ~ts:t1 ~kind:Hydra_obs.Flight.Reply
        ~tenant:(-1) ~a:dt ~b:(status_code r);
      Hydra_obs.trace_emit obs ctx "server.request" ~start_ns:t0 ~dur_ns:dt)
    ctxs responses;
  if srv.slow_ns > 0 && dt > srv.slow_ns then begin
    Hydra_obs.Flight.record srv.flight ~ts:t1 ~kind:Hydra_obs.Flight.Slow
      ~tenant:(-1) ~a:dt ~b:(List.length payloads);
    Hydra_obs.Log.log srv.log "slow_batch"
      [ ("duration_ns", string_of_int dt);
        ("requests", string_of_int (List.length payloads)) ];
    dump_flight srv ~reason:"slow"
  end;
  (responses, !stop)

let handle_client srv fd =
  let counted = ref false in
  let stop = ref false in
  let eof = ref false in
  while not (!eof || !stop || stopping ()) do
    let payloads, saw_eof = read_batch fd in
    eof := saw_eof;
    if payloads <> [] then begin
      let responses, shutdown = handle_batch srv counted payloads in
      List.iter
        (fun r -> Protocol.write_frame fd (Protocol.encode_response r))
        responses;
      if shutdown then stop := true
    end;
    check_dump_signal srv
  done;
  !stop

let serve ?obs ?(config = default_config ~socket_path:"hydra_c.sock")
    ?on_ready () =
  let engine = Engine.create ?obs ~jobs:config.jobs () in
  let srv =
    { engine; obs; flight = Engine.flight engine; trace = config.trace;
      log = Hydra_obs.Log.create ();
      slow_ns = config.slow_request_ms * 1_000_000;
      flight_file =
        (match config.flight_path with
        | Some p -> p
        | None -> config.socket_path ^ ".flight.jsonl") }
  in
  (try Unix.unlink config.socket_path with Unix.Unix_error _ -> ());
  let sock = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Atomic.set stop_requested false;
  (* Any signal may be unavailable on the platform; the daemon still
     runs, just without that handler. SIGUSR1 triggers a flight dump.
     SIGTERM and SIGINT stop the daemon as a [shutdown] request does,
     after the batch in hand; each re-arms its default action, so a
     second one kills at once, as it would with no handler. SIGPIPE
     is ignored so that a client hanging up before reading its reply
     makes the write raise EPIPE — logged by the accept loop as an
     io_error — instead of killing the daemon. *)
  let install signal behavior =
    match Sys.signal signal behavior with
    | old -> Some (signal, old)
    | exception (Invalid_argument _ | Sys_error _) -> None
  in
  let request_stop signal =
    Atomic.set stop_requested true;
    try Sys.set_signal signal Sys.Signal_default
    with Invalid_argument _ | Sys_error _ -> ()
  in
  let saved =
    [ install Sys.sigusr1
        (Sys.Signal_handle (fun _ -> Atomic.set dump_requested true));
      install Sys.sigterm (Sys.Signal_handle request_stop);
      install Sys.sigint (Sys.Signal_handle request_stop);
      install Sys.sigpipe Sys.Signal_ignore ]
  in
  let cleanup () =
    List.iter
      (function
        | Some (signal, old) -> (
            try Sys.set_signal signal old
            with Invalid_argument _ | Sys_error _ -> ())
        | None -> ())
      saved;
    (try Unix.close sock with Unix.Unix_error _ -> ());
    (try Unix.unlink config.socket_path with Unix.Unix_error _ -> ());
    (* an explicit --flight-out asks for a dump even on a clean
       shutdown — a deterministic artifact for CI *)
    if config.flight_path <> None then dump_flight srv ~reason:"shutdown";
    Engine.shutdown engine
  in
  Fun.protect ~finally:cleanup (fun () ->
      try
        Unix.bind sock (Unix.ADDR_UNIX config.socket_path);
        Unix.listen sock 8;
        (match on_ready with Some f -> f () | None -> ());
        let stop = ref false in
        while not (!stop || stopping ()) do
          match Unix.accept sock with
          | exception Unix.Unix_error (Unix.EINTR, _, _) ->
              check_dump_signal srv
          | client, _ ->
              (match handle_client srv client with
               | shutdown -> stop := shutdown
               | exception Protocol.Protocol_error m ->
                   Hydra_obs.Flight.record srv.flight
                     ~ts:(Hydra_obs.now_ns ()) ~kind:Hydra_obs.Flight.Error
                     ~tenant:(-1) ~a:0 ~b:0;
                   Hydra_obs.Log.log srv.log "protocol_error" [ ("error", m) ]
               | exception Unix.Unix_error (e, _, _) ->
                   Hydra_obs.Flight.record srv.flight
                     ~ts:(Hydra_obs.now_ns ()) ~kind:Hydra_obs.Flight.Error
                     ~tenant:(-1) ~a:0 ~b:1;
                   Hydra_obs.Log.log srv.log "io_error"
                     [ ("error", Unix.error_message e) ]);
              (try Unix.close client with Unix.Unix_error _ -> ());
              check_dump_signal srv
        done
      with e ->
        (* uncaught failure: preserve the last events for post-mortem,
           then let the exception escape through cleanup *)
        dump_flight srv ~reason:"crash";
        raise e)
