let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

let median a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples";
  let s = sorted a in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* The epsilon keeps q * n from rounding up past an exact rank
   (0.99 * 1000 must be rank 990, not 991). *)
let rank ~n ~q = max 1 (min n (int_of_float (Float.ceil ((q *. float n) -. 1e-9))))

let quantile a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  if not (q > 0. && q <= 1.) then invalid_arg "Stats.quantile: q outside (0, 1]";
  (sorted a).(rank ~n ~q - 1)

let supports ~n ~q = n > 0 && n - rank ~n ~q >= 10
