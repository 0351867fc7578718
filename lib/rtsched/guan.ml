type time = Task.time

type hp = {
  wcet : time array;
  period : time array;
  resp : time array;
}

let make n =
  { wcet = Array.make n 0; period = Array.make n 0; resp = Array.make n 0 }

(* The work of the fixed points counted into it: [iterations] Omega
   (or, for Eq. 1, demand) evaluations and one verdict per fixed
   point. *)
type tally = {
  mutable iterations : int;
  mutable converged : int;
  mutable diverged : int;
}

let make_tally () = { iterations = 0; converged = 0; diverged = 0 }

let count_verdict t = function
  | Some _ -> t.converged <- t.converged + 1
  | None -> t.diverged <- t.diverged + 1

(* A term's run is how far past the window x its clamped value is sure
   to keep growing one for one (doc/PERFORMANCE.md §2, "Jumping the
   Eq. 7 fixed point"). [largest.(0 .. k-1)] holds the k = M-1 largest
   runs recorded since the last [clear], in decreasing order (0 =
   none), and [total] the sum of every term's run. [last] is where the
   term functions below leave the run of the term they just clamped,
   so that they return one int and allocate nothing. [held_nc.(j)] and
   [held_ci.(j)] are the two candidate runs of the hp task whose
   increment sits in slot j of {!bound}'s [top]: which one counts is
   known only once the top set is. [tally] counts the work of every
   {!fixpoint} run on the buffer. *)
type runs = {
  largest : time array;
  mutable total : time;
  mutable last : time;
  held_nc : time array;
  held_ci : time array;
  tally : tally;
}

let runs ~n_cores =
  let k = n_cores - 1 in
  { largest = Array.make k 0; total = 0; last = 0; held_nc = Array.make k 0;
    held_ci = Array.make k 0; tally = make_tally () }

let tally r = r.tally

let clear r =
  for j = 0 to Array.length r.largest - 1 do
    r.largest.(j) <- 0
  done;
  r.total <- 0

let[@inline] add_run r rho =
  if rho > 0 then begin
    r.total <- r.total + rho;
    let l = r.largest in
    let k = Array.length l in
    if k > 0 && rho > l.(k - 1) then begin
      let j = ref (k - 1) in
      while !j > 0 && l.(!j - 1) < rho do
        l.(!j) <- l.(!j - 1);
        decr j
      done;
      l.(!j) <- rho
    end
  end

(* [Workload.interference ~job_wcet ~window:x w] for a raw workload
   [w >= 0] that grows one for one over the next [run] ticks. The
   clamped term's run, left in [r.last], adds the slack [w - cap]
   that the clamp cap = x - C_s + 1 hides: the cap itself grows one
   for one. *)
let[@inline] clamp r ~job_wcet x w run =
  let cap = x - job_wcet + 1 in
  if w < cap then begin
    r.last <- run;
    w
  end
  else if cap > 0 then begin
    r.last <- w - cap + run;
    cap
  end
  else begin
    r.last <- 0;
    0
  end

let clamped r ~job_wcet x w =
  let v = clamp r ~job_wcet x w 0 in
  add_run r r.last;
  v

(* nc_i(x) for x >= 1: Eq. 2 (Workload.non_carry_in) clamped by
   Eq. 5. The job released at floor(x/T)*T still runs for
   C - (x mod T) ticks. *)
let[@inline] nc_term r hp ~job_wcet i x =
  let c = hp.wcet.(i) and t = hp.period.(i) in
  let q = x / t in
  let m = x - (q * t) in
  if m < c then clamp r ~job_wcet x ((q * c) + m) (c - m)
  else clamp r ~job_wcet x ((q * c) + c) 0

(* ci_i(x) for x >= 1: Eq. 4 (Workload.carry_in) clamped by Eq. 5.
   The body nc(x - xbar) runs as nc does once x >= xbar, and the head
   min(x, C - 1) runs until x = C - 1. *)
let[@inline] ci_term r hp ~job_wcet i x =
  let c = hp.wcet.(i) and t = hp.period.(i) in
  let head = Int.min x (c - 1) and head_run = Int.max 0 (c - 1 - x) in
  let y = x - (c - 1 + t - hp.resp.(i)) in
  if y < 0 then clamp r ~job_wcet x head head_run
  else
    let q = y / t in
    let m = y - (q * t) in
    if m < c then clamp r ~job_wcet x ((q * c) + m + head) (c - m + head_run)
    else clamp r ~job_wcet x ((q * c) + c + head) head_run

(* [top.(0 .. filled-1)] holds the largest positive increments seen so
   far, in decreasing order; a new one is inserted by shifting the
   smaller ones down, dropping the last when the buffer is full. The
   sum of the k largest does not depend on the order the tasks come
   in, and increments <= 0 never enter it. A task's run is recorded
   once its term is settled: nc's when its increment stays out of (or
   is pushed out of) the top set, ci's for the final top set. *)
let bound hp ~n ~top ~runs:r ~job_wcet x =
  let k = Array.length top in
  let filled = ref 0 in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    let nci = nc_term r hp ~job_wcet i x in
    let nc_run = r.last in
    acc := !acc + nci;
    if k = 0 then add_run r nc_run
    else begin
      let d = ci_term r hp ~job_wcet i x - nci in
      if d > 0 && (!filled < k || d > top.(k - 1)) then begin
        if !filled = k then add_run r r.held_nc.(k - 1) else incr filled;
        let j = ref (!filled - 1) in
        while !j > 0 && top.(!j - 1) < d do
          top.(!j) <- top.(!j - 1);
          r.held_nc.(!j) <- r.held_nc.(!j - 1);
          r.held_ci.(!j) <- r.held_ci.(!j - 1);
          decr j
        done;
        top.(!j) <- d;
        r.held_nc.(!j) <- nc_run;
        r.held_ci.(!j) <- r.last
      end
      else add_run r nc_run
    end
  done;
  for j = 0 to !filled - 1 do
    acc := !acc + top.(j);
    add_run r r.held_ci.(j)
  done;
  !acc

let set_bound hp ~n ~set ~size ~runs:r ~job_wcet x =
  let acc = ref 0 in
  let j = ref 0 in
  for i = 0 to n - 1 do
    let v =
      if !j < size && set.(!j) = i then begin
        incr j;
        ci_term r hp ~job_wcet i x
      end
      else nc_term r hp ~job_wcet i x
    in
    add_run r r.last;
    acc := !acc + v
  done;
  !acc

let increments hp ~n ~runs:r ~job_wcet ~delta x =
  let acc = ref 0 in
  for i = 0 to n - 1 do
    let nci = nc_term r hp ~job_wcet i x in
    acc := !acc + nci;
    delta.(i) <- ci_term r hp ~job_wcet i x - nci
  done;
  !acc

(* The least d >= 1 with excess + L(d) < M d, where
   L(d) = sum_t min(run_t, d) and excess = Omega(x) - M (x - C_s + 1).
   M d - L(d) is convex and piecewise linear, with slope M - k while k
   runs exceed d, so the walk goes down the runs in decreasing order
   until the crossing lies on the current piece (doc/PERFORMANCE.md
   §2). [rest] is the sum of the runs not yet passed; by k = M - 1 the
   crossing is always on the piece. *)
let jump r ~n_cores ~excess =
  let l = r.largest in
  let rec walk k rest =
    if k = n_cores - 1 || ((n_cores - k) * l.(k)) - rest <= excess then
      ((excess + rest) / (n_cores - k)) + 1
    else walk (k + 1) (rest - l.(k))
  in
  walk 0 r.total

(* For a monotone [omega] the iterates from any start in [wcet, lfp]
   never decrease. After a rising step at x, no window in
   [x, x + jump) is a fixed point, so the next iterate, the larger of
   F(x) and x + jump, is still <= lfp: the loop stops at the least
   fixed point or past [limit], as the plain iteration does. A start
   above the lfp, outside the contract, descends step by step as the
   plain iteration would; the jump is only sound on a rising step. *)
let fixpoint ?(start = 0) ~runs ~n_cores ~wcet ~limit omega =
  let rec iter x =
    if x > limit then None
    else begin
      runs.tally.iterations <- runs.tally.iterations + 1;
      clear runs;
      let o = omega x in
      let x' = (o / n_cores) + wcet in
      if x' = x then Some x
      else if x' < x then iter x'
      else
        let excess = o - (n_cores * (x - wcet + 1)) in
        iter (Int.max x' (x + jump runs ~n_cores ~excess))
    end
  in
  let r = if wcet > limit then None else iter (Int.max wcet start) in
  count_verdict runs.tally r;
  r
