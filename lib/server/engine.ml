module Pool = Parallel.Pool
module Period_selection = Hydra.Period_selection

type t = {
  obs : Hydra_obs.t option;
  tenants : (string, Tenant.t) Hashtbl.t;
  pool : Pool.Static.t;
  flight : Hydra_obs.Flight.t;
}

let max_tenants = 64

let create ?obs ?(jobs = 1) () =
  { obs; tenants = Hashtbl.create 16; pool = Pool.Static.create ~jobs;
    flight = Hydra_obs.Flight.create () }

let shutdown t = Pool.Static.shutdown t.pool
let flight t = t.flight
let tenant_count t = Hashtbl.length t.tenants
let find_tenant t name = Hashtbl.find_opt t.tenants name

let op_counter (op : Protocol.op) =
  match op with
  | Init _ -> "server.req.init"
  | Rt_arrive _ | Sec_arrive _ -> "server.req.arrive"
  | Rt_leave _ | Sec_leave _ -> "server.req.leave"
  | Set_cores _ -> "server.req.set_cores"
  | Reselect -> "server.req.reselect"
  | Query -> "server.req.query"
  | Stats -> "server.req.stats"
  | Remove -> "server.req.remove"
  | Shutdown -> "server.req.shutdown"
  | Obs_snapshot -> "server.req.obs_snapshot"

let rows assignments =
  List.map
    (fun (a : Period_selection.assignment) ->
      { Protocol.a_name = a.sec.Rtsched.Task.sec_name; a_period = a.period;
        a_resp = a.resp })
    assignments

(* One tenant group of a batch, processed by exactly one domain.
   Dirty ops (init/arrive/leave/set_cores/reselect) are coalesced:
   their edits apply immediately, but the period selection runs once —
   at the next [Query]/[Remove]/[Init] barrier or at group end — and
   every pending requester receives that one final selection.

   [ftid] is the group's interned flight-recorder tenant id; every
   request rides with its optional trace context, and a traced
   request's worker-side processing is a ["server.apply"] child
   span. Without [may_create] (the tenant cap, decided by
   [exec_batch]) every [Init] is rejected and leaves no state. *)
let run_group ~obs ~flight ~ftid ~name ~may_create state reqs =
  let tenant = ref state in
  let pending = ref [] in
  (* (pos, id, ctx) of coalesced dirty ops *)
  let out = ref [] in
  let emit pos r = out := (pos, r) :: !out in
  let materialize ctx tn =
    let t0 = Hydra_obs.now_ns () and iters = Tenant.iterations tn in
    let result = Tenant.materialize ?obs ?ctx tn in
    Hydra_obs.Flight.record flight ~ts:(Hydra_obs.now_ns ())
      ~kind:Hydra_obs.Flight.Select ~tenant:ftid
      ~a:(Hydra_obs.now_ns () - t0) ~b:(Tenant.iterations tn - iters);
    result
  in
  let flush () =
    match !pending with
    | [] -> ()
    | ps -> (
        match !tenant with
        | None ->
            (* unreachable: pending is only pushed while a tenant
               exists, and Remove/Init flush before changing it *)
            List.iter
              (fun (pos, id, _) ->
                emit pos (Protocol.error ~id ~tenant:name "tenant vanished"))
              (List.rev ps);
            pending := []
        | Some tn ->
            let ps = List.rev ps in
            Hydra_obs.Flight.record flight ~ts:(Hydra_obs.now_ns ())
              ~kind:Hydra_obs.Flight.Coalesce ~tenant:ftid
              ~a:(List.length ps) ~b:0;
            (* the selection is attributed to the first traced
               requester among the coalesced ops *)
            let sel_ctx =
              List.fold_left
                (fun acc (_, _, c) ->
                  match acc with Some _ -> acc | None -> c)
                None ps
            in
            let result = materialize sel_ctx tn in
            let respond id =
              match result with
              | Period_selection.Schedulable assignments ->
                  Protocol.ok ~id ~tenant:name (Periods (rows assignments))
              | Period_selection.Unschedulable ->
                  Protocol.unschedulable ~id ~tenant:name
            in
            List.iter (fun (pos, id, _) -> emit pos (respond id)) ps;
            pending := [])
  in
  let require_tenant pos id k =
    match !tenant with
    | Some tn -> k tn
    | None ->
        emit pos
          (Protocol.error ~id ~tenant:name
             (Printf.sprintf "unknown tenant %S" name))
  in
  let on_admission pos id ctx = function
    | Tenant.Admitted () -> pending := (pos, id, ctx) :: !pending
    | Tenant.Rejected reason -> emit pos (Protocol.rejected ~id ~tenant:name reason)
    | Tenant.Invalid reason -> emit pos (Protocol.error ~id ~tenant:name reason)
  in
  List.iter
    (fun (pos, ctx, (q : Protocol.request)) ->
      let id = q.q_id in
      Hydra_obs.incr obs (op_counter q.q_op);
      let actx = Option.map Hydra_obs.Trace_ctx.child ctx in
      Hydra_obs.trace_span obs actx "server.apply" @@ fun () ->
      try
        match q.q_op with
        | Init _ when not may_create ->
            emit pos
              (Protocol.rejected ~id ~tenant:name
                 (Printf.sprintf "tenant limit %d reached" max_tenants))
        | Init { cores; rt; sec } -> (
            (* a replacement system: answer pending requests against
               the outgoing state first *)
            flush ();
            match Tenant.create ~name ~cores ~rt ~sec with
            | Tenant.Admitted tn ->
                tenant := Some tn;
                pending := [ (pos, id, actx) ]
            | Tenant.Rejected reason ->
                emit pos (Protocol.rejected ~id ~tenant:name reason)
            | Tenant.Invalid reason ->
                emit pos (Protocol.error ~id ~tenant:name reason))
        | Rt_arrive spec ->
            require_tenant pos id (fun tn ->
                on_admission pos id actx (Tenant.rt_arrive tn spec))
        | Rt_leave nm ->
            require_tenant pos id (fun tn ->
                on_admission pos id actx (Tenant.rt_leave tn nm))
        | Sec_arrive spec ->
            require_tenant pos id (fun tn ->
                on_admission pos id actx (Tenant.sec_arrive tn spec))
        | Sec_leave nm ->
            require_tenant pos id (fun tn ->
                on_admission pos id actx (Tenant.sec_leave tn nm))
        | Set_cores cores ->
            require_tenant pos id (fun tn ->
                on_admission pos id actx (Tenant.set_cores tn cores))
        | Reselect ->
            require_tenant pos id (fun tn ->
                Tenant.touch tn;
                on_admission pos id actx (Tenant.Admitted ()))
        | Query ->
            require_tenant pos id (fun tn ->
                flush ();
                let result = materialize actx tn in
                emit pos
                  (match result with
                  | Period_selection.Schedulable assignments ->
                      Protocol.ok ~id ~tenant:name (Periods (rows assignments))
                  | Period_selection.Unschedulable ->
                      Protocol.unschedulable ~id ~tenant:name))
        | Stats ->
            require_tenant pos id (fun tn ->
                emit pos
                  (Protocol.ok ~id ~tenant:name
                     (Tenant_stats (Tenant.stats tn))))
        | Remove ->
            require_tenant pos id (fun _ ->
                flush ();
                tenant := None;
                emit pos (Protocol.ok ~id ~tenant:name No_body))
        | Shutdown | Obs_snapshot ->
            emit pos
              (Protocol.error ~id ~tenant:name
                 (Protocol.op_name q.q_op
                 ^ " is a daemon request, not a tenant op"))
      with e ->
        emit pos
          (Protocol.error ~id ~tenant:name
             (Printf.sprintf "internal error: %s" (Printexc.to_string e))))
    reqs;
  flush ();
  (!tenant, !out)

let exec_batch ?ctxs t (batch : Protocol.request list) :
    Protocol.response list =
  let reqs = Array.of_list batch in
  let n = Array.length reqs in
  let ctxs =
    match ctxs with
    | None -> Array.make (max n 1) None
    | Some c ->
        if Array.length c <> n then
          invalid_arg "Engine.exec_batch: ctxs length <> batch length";
        c
  in
  let obs = t.obs in
  Hydra_obs.incr obs "server.batches";
  Hydra_obs.add obs "server.requests" n;
  if n = 0 then []
  else begin
    (* group request positions by tenant, first-occurrence order —
       deterministic sharding: the grouping, and which group an index
       lands in, depend only on the batch contents *)
    let order = ref [] in
    let index :
        ( string,
          (int * Hydra_obs.Trace_ctx.t option * Protocol.request) list ref )
        Hashtbl.t =
      Hashtbl.create 8
    in
    Array.iteri
      (fun i q ->
        match Hashtbl.find_opt index q.Protocol.q_tenant with
        | Some cell -> cell := (i, ctxs.(i), q) :: !cell
        | None ->
            Hashtbl.add index q.Protocol.q_tenant (ref [ (i, ctxs.(i), q) ]);
            order := q.Protocol.q_tenant :: !order)
      reqs;
    let names = Array.of_list (List.rev !order) in
    let n_groups = Array.length names in
    Hydra_obs.observe obs "server.batch.groups" n_groups;
    let members =
      Array.map (fun nm -> List.rev !(Hashtbl.find index nm)) names
    in
    (* intern flight tenant ids once per batch, on the calling domain *)
    let ftids = Array.map (Hydra_obs.Flight.intern t.flight) names in
    (* departure end of every traced request's cross-domain flow
       arrow, stamped on the dispatching domain; the arrival end lands
       on whichever worker claims the request's group, before it runs
       the group *)
    Array.iteri
      (fun i _ -> Hydra_obs.flow_begin obs ctxs.(i) "server.dispatch")
      reqs;
    (* pre-fetch tenant records on the calling domain; each group is
       then owned exclusively by one worker *)
    let states = Array.map (fun nm -> Hashtbl.find_opt t.tenants nm) names in
    (* the tenant cap, decided here from the table and the batch alone,
       so it is the same at every [jobs]: a group whose tenant is not
       resident may create it while fewer than [max_tenants] are
       counted, those resident at the batch's start plus those admitted
       by earlier groups with an [Init] *)
    let counted = ref (Hashtbl.length t.tenants) in
    let may_create =
      Array.mapi
        (fun g state ->
          match state with
          | Some _ -> true
          | None ->
              let admit =
                List.exists
                  (fun (_, _, (q : Protocol.request)) ->
                    match q.q_op with Init _ -> true | _ -> false)
                  members.(g)
                && !counted < max_tenants
              in
              if admit then incr counted;
              admit)
        states
    in
    let results =
      Pool.Static.map ?obs t.pool
        (fun g ->
          let ms = members.(g) in
          List.iter
            (fun (_, ctx, _) -> Hydra_obs.flow_end obs ctx "server.dispatch")
            ms;
          Hydra_obs.Flight.record t.flight ~ts:(Hydra_obs.now_ns ())
            ~kind:Hydra_obs.Flight.Shard ~tenant:ftids.(g)
            ~a:(List.length ms) ~b:g;
          run_group ~obs ~flight:t.flight ~ftid:ftids.(g) ~name:names.(g)
            ~may_create:may_create.(g) states.(g) ms)
        n_groups
    in
    (* table updates happen only here, back on the calling domain *)
    Array.iteri
      (fun g (after, _) ->
        match after with
        | Some tn -> Hashtbl.replace t.tenants names.(g) tn
        | None -> Hashtbl.remove t.tenants names.(g))
      results;
    let out = Array.make n None in
    Array.iter
      (fun (_, resps) ->
        List.iter (fun (pos, r) -> out.(pos) <- Some r) resps)
      results;
    Array.to_list
      (Array.map
         (function
           | Some r -> r
           | None -> assert false (* every request got exactly one response *))
         out)
  end
