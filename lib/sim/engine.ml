type time = int

type sim_task = {
  st_id : int;
  st_name : string;
  st_wcet : time;
  st_period : time;
  st_deadline : time;
  st_prio : int;
  st_core : int option;
  st_offset : time;
}

type job = {
  j_task : sim_task;
  j_seq : int;
  j_release : time;
  j_abs_deadline : time;
  mutable j_remaining : time;
  mutable j_last_core : int;
  mutable j_started_at : time;
}

type hooks = {
  on_release : (job -> unit) option;
  on_execute : (job -> core:int -> start:time -> stop:time -> unit) option;
  on_finish : (job -> finish:time -> unit) option;
  on_preempt : (job -> core:int -> time:time -> unit) option;
  on_migrate : (job -> from_core:int -> to_core:int -> time:time -> unit) option;
}

let no_hooks =
  { on_release = None; on_execute = None; on_finish = None; on_preempt = None;
    on_migrate = None }

type overheads = {
  dispatch_cost : time;
  migration_cost : time;
}

let no_overheads = { dispatch_cost = 0; migration_cost = 0 }

type task_stats = {
  ts_task : sim_task;
  ts_released : int;
  ts_finished : int;
  ts_deadline_misses : int;
  ts_aborted : int;
  ts_max_response : time;
  ts_total_response : time;
}

type stats = {
  horizon : time;
  per_task : task_stats array;
  context_switches : int;
  preemptions : int;
  migrations : int;
  busy_ticks : int;
  idle_ticks : int;
  decision_events : int;
  trace : Trace.t option;
}

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
}

let validate ~n_cores tasks =
  if tasks = [] then invalid_arg "Engine.run: empty task list";
  if n_cores < 1 then invalid_arg "Engine.run: n_cores < 1";
  let prios = Hashtbl.create 16 in
  List.iter
    (fun t ->
      if t.st_wcet < 1 then
        invalid_arg (Printf.sprintf "Engine.run: %s has wcet < 1" t.st_name);
      if t.st_period < t.st_wcet then
        invalid_arg (Printf.sprintf "Engine.run: %s has period < wcet" t.st_name);
      if t.st_offset < 0 then
        invalid_arg (Printf.sprintf "Engine.run: %s has negative offset" t.st_name);
      (match t.st_core with
      | Some m when m < 0 || m >= n_cores ->
          invalid_arg (Printf.sprintf "Engine.run: %s pinned out of range" t.st_name)
      | Some _ | None -> ());
      if Hashtbl.mem prios t.st_prio then
        invalid_arg
          (Printf.sprintf "Engine.run: duplicate priority %d (%s)" t.st_prio
             t.st_name);
      Hashtbl.add prios t.st_prio ())
    tasks

(* Argument checks of [run]; returns the task array. *)
let prepare ~overheads ~n_cores ~horizon tasks =
  if horizon < 1 then invalid_arg "Engine.run: horizon < 1";
  if overheads.dispatch_cost < 0 || overheads.migration_cost < 0 then
    invalid_arg "Engine.run: negative overheads";
  validate ~n_cores tasks;
  let tasks = Array.of_list tasks in
  let seen = Hashtbl.create (Array.length tasks) in
  Array.iter
    (fun t ->
      if Hashtbl.mem seen t.st_id then
        invalid_arg
          (Printf.sprintf "Engine.run: duplicate task id %d (%s)" t.st_id
             t.st_name);
      Hashtbl.add seen t.st_id ())
    tasks;
  tasks

let fresh_accs tasks =
  Array.map
    (fun t ->
      { released = 0; finished = 0; misses = 0; aborted = 0; max_resp = 0;
        total_resp = 0; next_release = t.st_offset; seq = 0 })
    tasks

let mk_stats ~horizon ~tasks ~(accs : acc array) ~trace ~context_switches
    ~preemptions ~migrations ~busy_ticks ~idle_ticks ~decision_events =
  let per_task =
    Array.mapi
      (fun i a ->
        { ts_task = tasks.(i); ts_released = a.released;
          ts_finished = a.finished; ts_deadline_misses = a.misses;
          ts_aborted = a.aborted; ts_max_response = a.max_resp;
          ts_total_response = a.total_resp })
      accs
  in
  { horizon; per_task; context_switches; preemptions; migrations; busy_ticks;
    idle_ticks; decision_events; trace }

(* ------------------------------------------------------------------ *)
(* Skip-ahead engine: same observable semantics as the seed stepper
   kept as the test oracle (test/oracle/naive_sim.ml) — bit-identical
   hook call sequences, event streams and stats (the differential
   tests in test/test_sim.ml enforce this) — but the per-event
   dispatch path is allocation-free:

   - future releases sit in a bucketed [Calendar] queue keyed by
     next-release time, so finding the earliest release is O(1)
     amortized instead of an O(n) scan, and same-time releases pop in
     task-index order (the stepper's iteration order);
   - the ready set is a bitset over priority ranks (priorities are
     globally unique), so the priority-order claim walks set bits
     instead of sorting a list, and exits early once every core is
     claimed;
   - per-core occupancy lives in flat arrays ([run_idx] task indices
     plus physical [job]s with a dummy standing in for "idle"), so
     the hot path never touches an option or a hashtable.

   The only per-event allocations left are one [job] record per
   released job (demanded by the hooks API) and trace segments when
   tracing is on — both on the non-annotated helpers; every
   [@lint.hot] binding below is gated allocation-free by hydra_lint
   rule D6. See doc/SIMULATOR.md.

   The compiler in use has no cross-function inliner (flambda off),
   so the hot path avoids abstraction that would become an indirect
   call or a division: the ready bitset uses 32-bit words indexed by
   shifts, find-first-set is a branch-free De Bruijn multiply, pinned
   cores and active jobs live in flat int/job arrays (a [dummy] job
   stands in for "none"), and advance + completion share one pass. *)

(* Count-trailing-zeros over a 32-bit word with at least one bit set:
   isolate the lowest bit, multiply by the De Bruijn constant, and use
   the top five bits as a table index. Branch-free and division-free. *)
let debruijn32 =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let[@lint.hot] ctz32 b =
  debruijn32.((b land (-b) * 0x077CB531 land 0xFFFFFFFF) lsr 27)

let run_unobserved ?(hooks = no_hooks) ?(collect_trace = false)
    ?(overheads = no_overheads) ~n_cores ~horizon tasks =
  let tasks = prepare ~overheads ~n_cores ~horizon tasks in
  let n = Array.length tasks in
  let accs = fresh_accs tasks in
  let trace = if collect_trace then Some (Trace.create ()) else None in

  (* Priority ranks: rank 0 = highest priority (smallest st_prio). *)
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare tasks.(a).st_prio tasks.(b).st_prio) order;
  let rank_of = Array.make n 0 in
  Array.iteri (fun r i -> rank_of.(i) <- r) order;

  (* Pinned core per task (-1 = migrating), flattened out of the
     [st_core] option so the claim walk reads one int. *)
  let pin = Array.make n (-1) in
  Array.iteri
    (fun i t -> match t.st_core with Some m -> pin.(i) <- m | None -> ())
    tasks;

  (* Ready set: bit r set iff the task at rank r has an active job.
     32-bit words so the index math is shifts and masks. *)
  let words = (n + 31) / 32 in
  let ready = Array.make words 0 in

  (* [dummy] stands in for "no job" in [active] and [run_job] so the
     hot path reads a [job] unconditionally and compares physically;
     [run_idx] carries the authoritative task index (-1 = idle). *)
  let dummy =
    { j_task = tasks.(0); j_seq = -1; j_release = 0; j_abs_deadline = 0;
      j_remaining = 0; j_last_core = -1; j_started_at = -1 }
  in
  (* The live job of each task, [dummy] when none. *)
  let active = Array.make n dummy in
  let run_idx = Array.make n_cores (-1) in
  let run_job = Array.make n_cores dummy in
  let claim_idx = Array.make n_cores (-1) in
  let seg_start = Array.make n_cores 0 in
  let context_switches = ref 0 in
  let preemptions = ref 0 in
  let migrations = ref 0 in
  let busy_ticks = ref 0 in
  let idle_ticks = ref 0 in
  let decision_events = ref 0 in

  (* Claim/switch elision. On an event with no releases and no waiting
     job (every active job is running), the greedy walk provably
     reproduces the current assignment — pinned jobs reclaim their
     pin, migrating jobs their last (= current) core — so the switch
     phase is a no-op and both phases can be skipped without touching
     any observable. "No waiting job" is [ready_n = run_n]: [ready_n]
     counts tasks with an active job, [run_n] occupied cores (every
     running job is its task's active job after each switch, so
     ready_n > run_n iff some active job is not running). *)
  let released = ref false in
  let ready_n = ref 0 in
  let run_n = ref 0 in

  (* Segments are observable only through the trace or the on_execute
     hook; when neither is on, the hot path skips the emit calls. *)
  let observing =
    collect_trace
    || (match hooks.on_execute with Some _ -> true | None -> false)
  in

  (* Release calendar keyed by next-release time; bucket width near
     the mean inter-release gap 1 / sum(1/T_i) for O(1) operations. *)
  let cal =
    let rate =
      Array.fold_left
        (fun s t -> s +. (1.0 /. float_of_int t.st_period))
        0.0 tasks
    in
    Calendar.create ~slots:n ~width:(int_of_float (1.0 /. rate))
  in
  Array.iteri (fun i t -> Calendar.add cal i ~key:t.st_offset) tasks;

  (* Allocates the trace-segment record, by design: segments only
     exist when tracing is on. [@lint.cold] marks it a sanctioned
     allocation point so rule D8 does not charge it to the hot
     callers (doc/STATIC_ANALYSIS.md). *)
  let[@lint.cold] emit_segment core job start stop =
    if stop > start then begin
      (match trace with
      | Some tr ->
          Trace.add tr
            { Trace.seg_core = core; seg_task_id = job.j_task.st_id;
              seg_task_name = job.j_task.st_name; seg_job_seq = job.j_seq;
              seg_start = start; seg_stop = stop }
      | None -> ());
      match hooks.on_execute with
      | Some f -> f job ~core ~start ~stop
      | None -> ()
    end
  in

  (* Release of task [i] at its recorded next-release time; allocates
     the job record (inherent to the hooks API), hence not hot —
     [@lint.cold] sanctions the allocation for rule D8. *)
  let[@lint.cold] release_one i =
    let task = tasks.(i) in
    let a = accs.(i) in
    let old = active.(i) in
    if old != dummy && old.j_remaining > 0 then begin
      (* Abort of a still-unfinished job: its ready bit stays set, the
         new job takes it over below. *)
      a.misses <- a.misses + 1;
      a.aborted <- a.aborted + 1
    end;
    let job =
      { j_task = task; j_seq = a.seq; j_release = a.next_release;
        j_abs_deadline = a.next_release + task.st_deadline;
        j_remaining = task.st_wcet; j_last_core = -1; j_started_at = -1 }
    in
    a.seq <- a.seq + 1;
    a.released <- a.released + 1;
    active.(i) <- job;
    released := true;
    let r = rank_of.(i) in
    let w = r lsr 5 and bit = 1 lsl (r land 31) in
    if ready.(w) land bit = 0 then begin
      ready.(w) <- ready.(w) lor bit;
      incr ready_n
    end;
    a.next_release <- a.next_release + task.st_period;
    Calendar.add cal i ~key:a.next_release;
    match hooks.on_release with Some f -> f job | None -> ()
  in
  (* Pops and releases everything due at [t] (ties in task-index
     order, the stepper's iteration order); returns the key of the next
     pending release — the calendar is peeked once per event. *)
  let[@lint.hot] rec release_due t =
    let k = Calendar.peek_min cal in
    if k > t then k
    else begin
      release_one (Calendar.pop_min cal);
      release_due t
    end
  in

  (* Priority-order greedy claim over the ready bitset, same decisions
     as the stepper's sorted-list claim; [free] counts unclaimed cores
     so the walk stops as soon as every core is taken. *)
  let[@lint.hot] rec first_free m =
    if claim_idx.(m) < 0 then m else first_free (m + 1)
  in
  let[@lint.hot] rec claim_bits w b free =
    if b = 0 then claim_word (w + 1) free
    else if free > 0 then begin
      let i = order.((w lsl 5) + ctz32 b) in
      let b = b land (b - 1) in
      let p = pin.(i) in
      if p >= 0 then
        if claim_idx.(p) < 0 then begin
          claim_idx.(p) <- i;
          claim_bits w b (free - 1)
        end
        else claim_bits w b free
      else begin
        (* Migrating: preferred (= last) core if unclaimed, else the
           lowest-index unclaimed core; [j_last_core < n_cores] always. *)
        let q = active.(i).j_last_core in
        if q >= 0 && claim_idx.(q) < 0 then claim_idx.(q) <- i
        else claim_idx.(first_free 0) <- i;
        claim_bits w b (free - 1)
      end
    end
  and claim_word w free = if w < words && free > 0 then claim_bits w ready.(w) free
  in

  let[@lint.hot] switch t =
    for m = 0 to n_cores - 1 do
      let oi = run_idx.(m) and ni = claim_idx.(m) in
      let oj = run_job.(m) in
      let same = if ni < 0 then oi < 0 else oi = ni && active.(ni) == oj in
      if not same then begin
        incr context_switches;
        if oi >= 0 then begin
          if observing then emit_segment m oj seg_start.(m) t;
          if oj.j_remaining > 0 && active.(oi) == oj then begin
            incr preemptions;
            match hooks.on_preempt with
            | Some f -> f oj ~core:m ~time:t
            | None -> ()
          end
        end;
        if ni >= 0 then begin
          let nj = active.(ni) in
          nj.j_remaining <- nj.j_remaining + overheads.dispatch_cost;
          if nj.j_last_core >= 0 && nj.j_last_core <> m then begin
            incr migrations;
            nj.j_remaining <- nj.j_remaining + overheads.migration_cost;
            (match hooks.on_migrate with
            | Some f -> f nj ~from_core:nj.j_last_core ~to_core:m ~time:t
            | None -> ())
          end;
          nj.j_last_core <- m;
          if nj.j_started_at < 0 then nj.j_started_at <- t;
          seg_start.(m) <- t;
          if oi < 0 then incr run_n;
          run_idx.(m) <- ni;
          run_job.(m) <- nj
        end
        else begin
          if oi >= 0 then decr run_n;
          run_idx.(m) <- -1;
          run_job.(m) <- dummy
        end
      end
    done
  in

  let[@lint.hot] rec completion_min t m best =
    if m = n_cores then best
    else
      let best =
        if run_idx.(m) >= 0 && t + run_job.(m).j_remaining < best then
          t + run_job.(m).j_remaining
        else best
      in
      completion_min t (m + 1) best
  in

  let[@lint.hot] complete_one m t' =
    let i = run_idx.(m) in
    let job = run_job.(m) in
    if observing then emit_segment m job seg_start.(m) t';
    let a = accs.(i) in
    let resp = t' - job.j_release in
    a.finished <- a.finished + 1;
    a.total_resp <- a.total_resp + resp;
    if resp > a.max_resp then a.max_resp <- resp;
    if t' > job.j_abs_deadline then a.misses <- a.misses + 1;
    if active.(i) == job then begin
      active.(i) <- dummy;
      let r = rank_of.(i) in
      ready.(r lsr 5) <- ready.(r lsr 5) land lnot (1 lsl (r land 31));
      decr ready_n
    end;
    run_idx.(m) <- -1;
    run_job.(m) <- dummy;
    decr run_n;
    incr context_switches;
    match hooks.on_finish with Some f -> f job ~finish:t' | None -> ()
  in
  (* One pass plays both the stepper's [advance] and [complete] phases:
     burn [t' - t] ticks on every core, then retire the jobs that hit
     zero — still in core order, so hook order is unchanged. *)
  let[@lint.hot] advance_complete t t' =
    let dt = t' - t in
    for m = 0 to n_cores - 1 do
      if run_idx.(m) >= 0 then begin
        let job = run_job.(m) in
        let rem = job.j_remaining - dt in
        job.j_remaining <- rem;
        busy_ticks := !busy_ticks + dt;
        if rem = 0 then complete_one m t'
      end
      else idle_ticks := !idle_ticks + dt
    done
  in

  let[@lint.hot] rec loop t =
    if t < horizon then begin
      incr decision_events;
      released := false;
      let rnext = release_due t in
      if !released || !ready_n > !run_n then begin
        for m = 0 to n_cores - 1 do claim_idx.(m) <- -1 done;
        claim_word 0 n_cores;
        switch t
      end;
      let t' = completion_min t 0 (if rnext < horizon then rnext else horizon) in
      advance_complete t t';
      loop t'
    end
  in
  loop 0;
  (* Close segments still open at the horizon. *)
  for m = 0 to n_cores - 1 do
    if run_idx.(m) >= 0 then emit_segment m run_job.(m) seg_start.(m) horizon
  done;
  mk_stats ~horizon ~tasks ~accs ~trace ~context_switches:!context_switches
    ~preemptions:!preemptions ~migrations:!migrations ~busy_ticks:!busy_ticks
    ~idle_ticks:!idle_ticks ~decision_events:!decision_events

let run ?obs ?hooks ?collect_trace ?overheads ~n_cores ~horizon tasks =
  let hooks =
    match obs with
    | None -> hooks
    | Some _ ->
        (* Sample every job response into the sim.response histogram,
           on top of whatever on_finish the caller installed. *)
        let base = Option.value hooks ~default:no_hooks in
        let on_finish job ~finish =
          Hydra_obs.sample obs "sim.response" (finish - job.j_release);
          match base.on_finish with Some f -> f job ~finish | None -> ()
        in
        Some { base with on_finish = Some on_finish }
  in
  let stats =
    Hydra_obs.span obs "sim.run" (fun () ->
        run_unobserved ?hooks ?collect_trace ?overheads ~n_cores ~horizon
          tasks)
  in
  Hydra_obs.incr obs "sim.runs";
  Hydra_obs.add obs "sim.context_switches" stats.context_switches;
  Hydra_obs.add obs "sim.preemptions" stats.preemptions;
  Hydra_obs.add obs "sim.migrations" stats.migrations;
  Hydra_obs.add obs "sim.busy_ticks" stats.busy_ticks;
  Hydra_obs.add obs "sim.idle_ticks" stats.idle_ticks;
  Hydra_obs.add obs "sim.decision_events" stats.decision_events;
  stats
