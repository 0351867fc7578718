let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

(* The exact sequential path: no domain, no atomic, ascending order. *)
let map_seq f n =
  if n = 0 then [||]
  else begin
    let out = Array.make n (f 0) in
    for i = 1 to n - 1 do
      out.(i) <- f i
    done;
    out
  end

(* One worker's share of a map: claim indices off the shared cursor,
   one per [fetch_and_add], until the range is exhausted or some
   worker has failed. [apply i] writes slot [i] of the caller's output
   array — distinct indices, so no write ever races with another.
   Shared by the spawn-per-map {!map} and the persistent {!Static}
   pool so both have the same scheduling and failure behavior. *)
let claim_loop ~cursor ~failure ~n apply =
  let running = ref true in
  while !running do
    if Atomic.get failure <> None then running := false
    else begin
      let i = Atomic.fetch_and_add cursor 1 in
      if i >= n then running := false
      else
        try apply i
        with e ->
          let bt = Printexc.get_raw_backtrace () in
          ignore (Atomic.compare_and_set failure None (Some (e, bt)));
          running := false
    end
  done

let reraise_failure failure =
  match Atomic.get failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let map ?obs ?jobs f n =
  if n < 0 then invalid_arg "Pool.map: negative length";
  let jobs =
    let requested =
      match jobs with Some j -> max 1 j | None -> default_jobs ()
    in
    (* more workers than items would only spawn idle domains *)
    min requested (max 1 n)
  in
  (* the pool records only what is a pure function of the workload —
     how many maps and items, never which worker ran what or for how
     long — so snapshots stay byte-identical across --jobs *)
  Hydra_obs.incr obs "pool.maps";
  Hydra_obs.add obs "pool.items" n;
  if jobs = 1 then map_seq f n
  else begin
    let out = Array.make n None in
    let cursor = Atomic.make 0 in
    let failure = Atomic.make None in
    let worker () =
      claim_loop ~cursor ~failure ~n (fun i -> out.(i) <- Some (f i))
    in
    let spawned = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join spawned;
    reraise_failure failure;
    Array.map (function Some v -> v | None -> assert false) out
  end

let map_array ?obs ?jobs f a =
  map ?obs ?jobs (fun i -> f a.(i)) (Array.length a)

let map_list ?obs ?jobs f l =
  Array.to_list (map_array ?obs ?jobs f (Array.of_list l))

(* Persistent worker pool: [jobs - 1] long-lived domains parked on a
   condition variable between maps. [map] publishes a job under the
   mutex as a monomorphic [unit -> unit] body (the polymorphic output
   array is captured in the closure), bumps the epoch, wakes everyone,
   runs the same claim loop in the calling domain, then blocks until
   every worker has checked back in. Spawning a domain costs ~100 us;
   a server dispatching small batches per request would pay that on
   every batch with {!map}, which is the entire reason this module
   exists (doc/SERVER.md). Determinism is inherited from
   {!claim_loop}: results are slotted by index, so output is identical
   for every [jobs]. *)
module Static = struct
  type t = {
    jobs : int;
    mu : Mutex.t;
    start : Condition.t;  (* workers: a new epoch is available *)
    finish : Condition.t;  (* caller: all workers drained the epoch *)
    mutable epoch : int;
    mutable body : (unit -> unit) option;  (* job of the current epoch *)
    mutable active : int;  (* workers still inside the current epoch *)
    mutable stopped : bool;
    mutable domains : unit Domain.t array;
  }

  let worker t =
    let seen = ref 0 in
    let running = ref true in
    while !running do
      Mutex.lock t.mu;
      while (not t.stopped) && t.epoch = !seen do
        Condition.wait t.start t.mu
      done;
      if t.stopped then begin
        running := false;
        Mutex.unlock t.mu
      end
      else begin
        seen := t.epoch;
        let body = t.body in
        Mutex.unlock t.mu;
        (match body with Some run -> run () | None -> ());
        Mutex.lock t.mu;
        t.active <- t.active - 1;
        if t.active = 0 then Condition.signal t.finish;
        Mutex.unlock t.mu
      end
    done

  let create ~jobs =
    let jobs = max 1 jobs in
    let t =
      { jobs; mu = Mutex.create (); start = Condition.create ();
        finish = Condition.create (); epoch = 0; body = None; active = 0;
        stopped = false; domains = [||] }
    in
    t.domains <-
      Array.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker t));
    t

  let shutdown t =
    let join =
      Mutex.lock t.mu;
      let first = not t.stopped in
      if first then begin
        t.stopped <- true;
        Condition.broadcast t.start
      end;
      Mutex.unlock t.mu;
      first
    in
    if join then Array.iter Domain.join t.domains

  let map ?obs t f n =
    if n < 0 then invalid_arg "Pool.Static.map: negative length";
    if t.stopped then invalid_arg "Pool.Static.map: pool is shut down";
    Hydra_obs.incr obs "pool.maps";
    Hydra_obs.add obs "pool.items" n;
    if t.jobs = 1 || n <= 1 then map_seq f n
    else begin
      let out = Array.make n None in
      let cursor = Atomic.make 0 in
      let failure = Atomic.make None in
      let run () =
        claim_loop ~cursor ~failure ~n (fun i -> out.(i) <- Some (f i))
      in
      Mutex.lock t.mu;
      t.body <- Some run;
      t.active <- t.jobs - 1;
      t.epoch <- t.epoch + 1;
      Condition.broadcast t.start;
      Mutex.unlock t.mu;
      (* the calling domain is a worker too *)
      run ();
      Mutex.lock t.mu;
      while t.active > 0 do
        Condition.wait t.finish t.mu
      done;
      t.body <- None;
      Mutex.unlock t.mu;
      reraise_failure failure;
      Array.map (function Some v -> v | None -> assert false) out
    end
end
