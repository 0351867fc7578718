module Workload = Rtsched.Workload
module Rta_global = Rtsched.Rta_global

(* Interference of one higher-priority task [t] (with known response
   time [resp]) on a window of length [x] for a job of WCET [job_wcet]:
   non-carry-in bound and the increment gained if [t] carries in. *)
let nc_and_delta ~job_wcet ~window ((t : Rta_global.gtask), resp) =
  let nc =
    Workload.interference ~job_wcet ~window
      (Workload.non_carry_in ~wcet:t.g_wcet ~period:t.g_period window)
  in
  let ci =
    Workload.interference ~job_wcet ~window
      (Workload.carry_in ~wcet:t.g_wcet ~period:t.g_period ~resp window)
  in
  (nc, max 0 (ci - nc))

(* Sum of the [k] largest elements of [l]. *)
let top_k_sum k l =
  let sorted = List.sort (fun a b -> Int.compare b a) l in
  let rec take n acc = function
    | [] -> acc
    | _ when n = 0 -> acc
    | x :: rest -> take (n - 1) (acc + x) rest
  in
  take k 0 sorted

let omega ~n_cores ~job_wcet ~window hp =
  let pairs = List.map (nc_and_delta ~job_wcet ~window) hp in
  let nc_total = List.fold_left (fun acc (nc, _) -> acc + nc) 0 pairs in
  let deltas = List.map snd pairs in
  nc_total + top_k_sum (n_cores - 1) deltas

(* Textbook Eq. 7 iteration from x = C. *)
let response_time_of_lowest ~n_cores ~hp ~wcet ~limit =
  let rec iter x =
    if x > limit then None
    else
      let x' = (omega ~n_cores ~job_wcet:wcet ~window:x hp / n_cores) + wcet in
      if x' = x then Some x else iter x'
  in
  if wcet > limit then None else iter wcet

let response_times ~n_cores tasks =
  let rec go hp_acc = function
    | [] -> []
    | (t : Rta_global.gtask) :: rest -> (
        match
          response_time_of_lowest ~n_cores ~hp:(List.rev hp_acc) ~wcet:t.g_wcet
            ~limit:t.g_deadline
        with
        | Some r -> Some r :: go ((t, r) :: hp_acc) rest
        | None -> None :: List.map (fun _ -> None) rest)
  in
  go [] tasks
