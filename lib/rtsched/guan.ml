type time = Task.time

type hp = {
  wcet : time array;
  period : time array;
  resp : time array;
}

let make n =
  { wcet = Array.make n 0; period = Array.make n 0; resp = Array.make n 0 }

let nc hp ~job_wcet i x =
  Workload.interference ~job_wcet ~window:x
    (Workload.non_carry_in ~wcet:hp.wcet.(i) ~period:hp.period.(i) x)

let ci hp ~job_wcet i x =
  Workload.interference ~job_wcet ~window:x
    (Workload.carry_in ~wcet:hp.wcet.(i) ~period:hp.period.(i)
       ~resp:hp.resp.(i) x)

let nc_total hp ~n ~job_wcet x =
  let acc = ref 0 in
  for i = 0 to n - 1 do
    acc := !acc + nc hp ~job_wcet i x
  done;
  !acc

let delta hp ~job_wcet i x = ci hp ~job_wcet i x - nc hp ~job_wcet i x

(* [top.(0 .. filled-1)] holds the largest positive increments seen so
   far, in decreasing order; a new one is inserted by shifting the
   smaller ones down, dropping the last when the buffer is full. The
   sum of the k largest does not depend on the order the tasks come
   in, and increments <= 0 never enter it. *)
let bound hp ~n ~top ~job_wcet x =
  let k = Array.length top in
  let filled = ref 0 in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    let nci = nc hp ~job_wcet i x in
    acc := !acc + nci;
    if k > 0 then begin
      let d = ci hp ~job_wcet i x - nci in
      if d > 0 && (!filled < k || d > top.(k - 1)) then begin
        let j = ref (min !filled (k - 1)) in
        if !filled < k then incr filled;
        while !j > 0 && top.(!j - 1) < d do
          top.(!j) <- top.(!j - 1);
          decr j
        done;
        top.(!j) <- d
      end
    end
  done;
  for j = 0 to !filled - 1 do
    acc := !acc + top.(j)
  done;
  !acc

(* For a monotone [omega] the iterates from any start in [wcet, lfp]
   never decrease, so the loop stops at the least fixed point or past
   [limit]. *)
let fixpoint ?(start = 0) ~iters ~n_cores ~wcet ~limit omega =
  let rec iter x =
    if x > limit then None
    else begin
      incr iters;
      let x' = (omega x / n_cores) + wcet in
      if x' = x then Some x else iter x'
    end
  in
  if wcet > limit then None else iter (max wcet start)
