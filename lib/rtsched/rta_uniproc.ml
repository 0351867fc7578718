type time = Task.time

type hp = { wcet : time array; period : time array }

let make n = { wcet = Array.make n 0; period = Array.make n 0 }

(* acc + sum_{i <= j < n} ceil(x/T_j)*C_j, Workload.request_bound for
   x >= 1. *)
let[@lint.hot] rec demand wcet period n i acc x =
  if i = n then acc
  else
    let t = period.(i) in
    demand wcet period n (i + 1) (acc + ((x + t - 1) / t * wcet.(i))) x

(* Each step jumps to the demand at the current iterate, so from a
   start in [C, lfp] the iterates never decrease and stop at the least
   fixed point or at the first one past [limit]. *)
let[@lint.hot] rec iterate tally wcet period n job_wcet limit x =
  if x > limit then x
  else begin
    tally.Guan.iterations <- tally.Guan.iterations + 1;
    let d = demand wcet period n 0 job_wcet x in
    if d = x then x else iterate tally wcet period n job_wcet limit d
  end

let[@lint.hot] response_time ~tally hp ~n ~job_wcet ~start ~limit =
  let r = iterate tally hp.wcet hp.period n job_wcet limit start in
  if r > limit then tally.Guan.diverged <- tally.Guan.diverged + 1
  else tally.Guan.converged <- tally.Guan.converged + 1;
  r
