open Sim.Engine

(* Mutable per-task accumulator mirrored into [task_stats] at the end. *)
type acc = {
  mutable released : int;
  mutable finished : int;
  mutable misses : int;
  mutable aborted : int;
  mutable max_resp : time;
  mutable total_resp : time;
  mutable next_release : time;
  mutable seq : int;
  mutable active : job option;  (** the single in-flight job, if any *)
}

(* Every event recomputes the ready order by sorting and every
   next-event scan walks all tasks; doc/SIMULATOR.md documents why the
   production engine skips ahead instead and how the two are
   differential-tested. *)
let run ?(hooks = no_hooks) ?(collect_trace = false)
    ?(overheads = no_overheads) ~n_cores ~horizon tasks =
  let tasks = Array.of_list tasks in
  let n = Array.length tasks in
  let index_of_id = Hashtbl.create n in
  Array.iteri (fun i t -> Hashtbl.replace index_of_id t.st_id i) tasks;
  let accs =
    Array.map
      (fun t ->
        { released = 0; finished = 0; misses = 0; aborted = 0; max_resp = 0;
          total_resp = 0; next_release = t.st_offset; seq = 0; active = None })
      tasks
  in
  let trace = if collect_trace then Some (Sim.Trace.create ()) else None in
  let ready = ref [] in
  let running : job option array = Array.make n_cores None in
  let seg_start = Array.make n_cores 0 in
  let context_switches = ref 0 in
  let preemptions = ref 0 in
  let migrations = ref 0 in
  let busy_ticks = ref 0 in
  let idle_ticks = ref 0 in
  let decision_events = ref 0 in

  let emit_segment core job start stop =
    if stop > start then begin
      (match trace with
      | Some tr ->
          Sim.Trace.add tr
            { Sim.Trace.seg_core = core; seg_task_id = job.j_task.st_id;
              seg_task_name = job.j_task.st_name; seg_job_seq = job.j_seq;
              seg_start = start; seg_stop = stop }
      | None -> ());
      match hooks.on_execute with
      | Some f -> f job ~core ~start ~stop
      | None -> ()
    end
  in

  let release_jobs t =
    Array.iteri
      (fun i task ->
        let a = accs.(i) in
        while a.next_release <= t do
          (* Abort a still-unfinished previous job: the security-task
             model requires completion before the next invocation, so
             an overrun is a deadline miss and the stale job is
             dropped to avoid unbounded backlog. *)
          (match a.active with
          | Some old when old.j_remaining > 0 ->
              a.misses <- a.misses + 1;
              a.aborted <- a.aborted + 1;
              ready := List.filter (fun j -> j != old) !ready
          | Some _ | None -> ());
          let job =
            { j_task = task; j_seq = a.seq; j_release = a.next_release;
              j_abs_deadline = a.next_release + task.st_deadline;
              j_remaining = task.st_wcet; j_last_core = -1; j_started_at = -1 }
          in
          a.seq <- a.seq + 1;
          a.released <- a.released + 1;
          a.active <- Some job;
          ready := job :: !ready;
          a.next_release <- a.next_release + task.st_period;
          match hooks.on_release with Some f -> f job | None -> ()
        done)
      tasks
  in

  (* Priority-order greedy claim: pinned jobs claim their own core,
     migrating jobs any unclaimed core (preferring where they last
     ran). With unique priorities this realizes partitioned, semi-
     partitioned and global FP depending on the pinning pattern. *)
  let assign () =
    let sorted =
      List.sort (fun a b -> compare a.j_task.st_prio b.j_task.st_prio) !ready
    in
    let claimed = Array.make n_cores None in
    let try_claim m job = if claimed.(m) = None then (claimed.(m) <- Some job; true) else false in
    let place job =
      match job.j_task.st_core with
      | Some m -> ignore (try_claim m job)
      | None ->
          let preferred = job.j_last_core in
          let taken =
            preferred >= 0 && preferred < n_cores && try_claim preferred job
          in
          if not taken then begin
            let rec scan m =
              if m < n_cores then if try_claim m job then () else scan (m + 1)
            in
            scan 0
          end
    in
    List.iter place sorted;
    claimed
  in

  let switch_to t newrun =
    for m = 0 to n_cores - 1 do
      let old = running.(m) and next = newrun.(m) in
      let same =
        match (old, next) with
        | None, None -> true
        | Some a, Some b -> a == b
        | None, Some _ | Some _, None -> false
      in
      if not same then begin
        incr context_switches;
        (match old with
        | Some job ->
            emit_segment m job seg_start.(m) t;
            if job.j_remaining > 0 && List.memq job !ready then begin
              incr preemptions;
              match hooks.on_preempt with
              | Some f -> f job ~core:m ~time:t
              | None -> ()
            end
        | None -> ());
        (match next with
        | Some job ->
            (* Dispatch overheads inflate the incoming job's remaining
               execution — the cost is paid inside its own budget. *)
            job.j_remaining <- job.j_remaining + overheads.dispatch_cost;
            if job.j_last_core >= 0 && job.j_last_core <> m then begin
              incr migrations;
              job.j_remaining <- job.j_remaining + overheads.migration_cost;
              match hooks.on_migrate with
              | Some f -> f job ~from_core:job.j_last_core ~to_core:m ~time:t
              | None -> ()
            end;
            job.j_last_core <- m;
            if job.j_started_at < 0 then job.j_started_at <- t;
            seg_start.(m) <- t
        | None -> ());
        running.(m) <- next
      end
    done
  in

  let next_event_after t =
    let t' = ref horizon in
    Array.iter (fun a -> if a.next_release < !t' then t' := a.next_release) accs;
    Array.iter
      (function
        | Some job ->
            let fin = t + job.j_remaining in
            if fin < !t' then t' := fin
        | None -> ())
      running;
    !t'
  in

  let rec loop t =
    if t < horizon then begin
      incr decision_events;
      release_jobs t;
      let newrun = assign () in
      switch_to t newrun;
      let t' = next_event_after t in
      let dt = t' - t in
      for m = 0 to n_cores - 1 do
        match running.(m) with
        | Some job ->
            job.j_remaining <- job.j_remaining - dt;
            busy_ticks := !busy_ticks + dt
        | None -> idle_ticks := !idle_ticks + dt
      done;
      (* Completions at t'. *)
      for m = 0 to n_cores - 1 do
        match running.(m) with
        | Some job when job.j_remaining = 0 ->
            emit_segment m job seg_start.(m) t';
            let a = accs.(Hashtbl.find index_of_id job.j_task.st_id) in
            let resp = t' - job.j_release in
            a.finished <- a.finished + 1;
            a.total_resp <- a.total_resp + resp;
            if resp > a.max_resp then a.max_resp <- resp;
            if t' > job.j_abs_deadline then a.misses <- a.misses + 1;
            (match a.active with
            | Some j when j == job -> a.active <- None
            | Some _ | None -> ());
            ready := List.filter (fun j -> j != job) !ready;
            running.(m) <- None;
            incr context_switches;
            (match hooks.on_finish with
            | Some f -> f job ~finish:t'
            | None -> ())
        | Some _ | None -> ()
      done;
      loop t'
    end
  in
  loop 0;
  (* Close segments still open at the horizon. *)
  for m = 0 to n_cores - 1 do
    match running.(m) with
    | Some job -> emit_segment m job seg_start.(m) horizon
    | None -> ()
  done;
  let per_task =
    Array.mapi
      (fun i a ->
        { ts_task = tasks.(i); ts_released = a.released;
          ts_finished = a.finished; ts_deadline_misses = a.misses;
          ts_aborted = a.aborted; ts_max_response = a.max_resp;
          ts_total_response = a.total_resp })
      accs
  in
  { horizon; per_task; context_switches = !context_switches;
    preemptions = !preemptions; migrations = !migrations;
    busy_ticks = !busy_ticks; idle_ticks = !idle_ticks;
    decision_events = !decision_events; trace }
