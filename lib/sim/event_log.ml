type time = Engine.time

type kind =
  | Release
  | Segment of { core : int; stop : time }
  | Preempt of { core : int }
  | Migrate of { from_core : int; to_core : int }
  | Finish of { response : time }
  | Deadline_miss

type event = {
  e_time : time;
  e_task_id : int;
  e_task_name : string;
  e_job_seq : int;
  e_kind : kind;
}

type t = {
  n_cores : int;
  mutable rev_events : event list;
  mutable n_events : int;
}

let create ~n_cores =
  if n_cores < 1 then invalid_arg "Event_log.create: n_cores < 1";
  { n_cores; rev_events = []; n_events = 0 }

let n_cores t = t.n_cores
let length t = t.n_events

let push t time (job : Engine.job) kind =
  t.rev_events <-
    { e_time = time; e_task_id = job.Engine.j_task.Engine.st_id;
      e_task_name = job.Engine.j_task.Engine.st_name;
      e_job_seq = job.Engine.j_seq; e_kind = kind }
    :: t.rev_events;
  t.n_events <- t.n_events + 1

(* Migrations rank before segments so that, at the dispatch tick, the
   flow start (keyed on the job's previous segment) is emitted before
   the new segment consumes the open flow id. *)
let kind_rank = function
  | Release -> 0
  | Migrate _ -> 1
  | Segment _ -> 2
  | Preempt _ -> 3
  | Finish _ -> 4
  | Deadline_miss -> 5

(* Total order independent of recording order: the engine is
   sequential, but sorting here means [events] does not depend on the
   (deterministic yet incidental) per-tick hook firing order. *)
let compare_events a b =
  let c = Int.compare a.e_time b.e_time in
  if c <> 0 then c
  else
    let c = Int.compare (kind_rank a.e_kind) (kind_rank b.e_kind) in
    if c <> 0 then c
    else
      let c = Int.compare a.e_task_id b.e_task_id in
      if c <> 0 then c else Int.compare a.e_job_seq b.e_job_seq

let events t = List.sort compare_events (List.rev t.rev_events)

let pp_kind ppf = function
  | Release -> Format.pp_print_string ppf "release"
  | Segment { core; stop } -> Format.fprintf ppf "segment[core %d, stop %d]" core stop
  | Preempt { core } -> Format.fprintf ppf "preempt[core %d]" core
  | Migrate { from_core; to_core } ->
      Format.fprintf ppf "migrate[%d -> %d]" from_core to_core
  | Finish { response } -> Format.fprintf ppf "finish[response %d]" response
  | Deadline_miss -> Format.pp_print_string ppf "deadline-miss"

let pp_event ppf e =
  Format.fprintf ppf "t=%d %s#%d %a" e.e_time e.e_task_name e.e_job_seq pp_kind
    e.e_kind

let first_divergence xs ys =
  let rec go i xs ys =
    match (xs, ys) with
    | [], [] -> None
    | x :: xs, y :: ys ->
        if x = y then go (i + 1) xs ys else Some (i, Some x, Some y)
    | x :: _, [] -> Some (i, Some x, None)
    | [], y :: _ -> Some (i, None, Some y)
  in
  go 0 xs ys

let hooks ?(base = Engine.no_hooks) t =
  let on_release job = push t job.Engine.j_release job Release;
    match base.Engine.on_release with Some f -> f job | None -> ()
  in
  let on_execute job ~core ~start ~stop =
    push t start job (Segment { core; stop });
    match base.Engine.on_execute with
    | Some f -> f job ~core ~start ~stop
    | None -> ()
  in
  let on_finish job ~finish =
    push t finish job (Finish { response = finish - job.Engine.j_release });
    if finish > job.Engine.j_abs_deadline then push t finish job Deadline_miss;
    match base.Engine.on_finish with Some f -> f job ~finish | None -> ()
  in
  let on_preempt job ~core ~time =
    push t time job (Preempt { core });
    match base.Engine.on_preempt with
    | Some f -> f job ~core ~time
    | None -> ()
  in
  let on_migrate job ~from_core ~to_core ~time =
    push t time job (Migrate { from_core; to_core });
    match base.Engine.on_migrate with
    | Some f -> f job ~from_core ~to_core ~time
    | None -> ()
  in
  { Engine.on_release = Some on_release; on_execute = Some on_execute;
    on_finish = Some on_finish; on_preempt = Some on_preempt;
    on_migrate = Some on_migrate }

(* --- Chrome trace-event rendering ------------------------------------ *)

(* One simulator tick renders as one microsecond: Perfetto timestamps
   are in us, and integer ticks map 1:1 so slice boundaries stay
   exact. *)

let chrome_events t ~pid =
  let evs = events t in
  let out = ref [] in
  let emit s = out := s :: !out in
  emit
    (Printf.sprintf
       "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":\"simulated schedule\"}}"
       pid);
  emit
    (Printf.sprintf
       "{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"sort_index\":%d}}"
       pid pid);
  for m = 0 to t.n_cores - 1 do
    emit
      (Printf.sprintf
         "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"core %d\"}}"
         pid m m);
    emit
      (Printf.sprintf
         "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"sort_index\":%d}}"
         pid m m)
  done;
  (* Flow events tie a migrating job's last segment on the old core to
     its first segment on the new core. [pending] maps (task,seq) to
     the (core, stop) of the job's most recent segment; a migration
     flushes it as a flow start and marks the flow id to be bound to
     the job's next segment. *)
  let pending : (int * int, int * time) Hashtbl.t = Hashtbl.create 64 in
  let open_flow : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
  let next_flow = ref 0 in
  List.iter
    (fun e ->
      let key = (e.e_task_id, e.e_job_seq) in
      let name = Hydra_obs.Json.escape e.e_task_name in
      match e.e_kind with
      | Release ->
          emit
            (Printf.sprintf
               "{\"name\":\"release %s#%d\",\"ph\":\"i\",\"s\":\"p\",\"pid\":%d,\"tid\":0,\"ts\":%d}"
               name e.e_job_seq pid e.e_time)
      | Segment { core; stop } ->
          emit
            (Printf.sprintf
               "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%d,\"dur\":%d,\"args\":{\"job\":%d,\"task_id\":%d}}"
               name pid core e.e_time (stop - e.e_time)
               e.e_job_seq e.e_task_id);
          (match Hashtbl.find_opt open_flow key with
          | Some id ->
              Hashtbl.remove open_flow key;
              emit
                (Printf.sprintf
                   "{\"name\":\"migration\",\"ph\":\"f\",\"bp\":\"e\",\"id\":%d,\"pid\":%d,\"tid\":%d,\"ts\":%d}"
                   id pid core e.e_time)
          | None -> ());
          Hashtbl.replace pending key (core, stop)
      | Migrate { from_core; to_core = _ } -> (
          match Hashtbl.find_opt pending key with
          | Some (core, stop) when core = from_core ->
              let id = !next_flow in
              incr next_flow;
              Hashtbl.replace open_flow key id;
              emit
                (Printf.sprintf
                   "{\"name\":\"migration\",\"ph\":\"s\",\"id\":%d,\"pid\":%d,\"tid\":%d,\"ts\":%d}"
                   id pid from_core stop)
          | Some _ | None -> ())
      | Preempt { core } ->
          emit
            (Printf.sprintf
               "{\"name\":\"preempt %s#%d\",\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,\"tid\":%d,\"ts\":%d}"
               name e.e_job_seq pid core e.e_time)
      | Finish _ -> ()
      | Deadline_miss ->
          emit
            (Printf.sprintf
               "{\"name\":\"DEADLINE MISS %s#%d\",\"ph\":\"i\",\"s\":\"p\",\"pid\":%d,\"tid\":0,\"ts\":%d}"
               name e.e_job_seq pid e.e_time))
    evs;
  List.rev !out

let to_chrome t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b s)
    (chrome_events t ~pid:1);
  Buffer.add_string b "]}";
  Buffer.contents b
