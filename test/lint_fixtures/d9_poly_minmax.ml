(* Fixture for rule D9: Stdlib's polymorphic min/max in the integer
   analysis. Linted by test_lint under the pretend path
   lib/rtsched/d9_poly_minmax.ml (the rule covers lib/rtsched and
   lib/hydra only). Expected findings: D9 at lines 6, 8, 10 and 12. *)
let head x c =
  min x (c - 1)

let floor_at x = Stdlib.max 0 x

let largest xs = List.fold_left max 0 xs

let smallest = Stdlib.min

(* The monomorphic forms are the fix: no findings here. *)
let head_ok x c = Int.min x (c - 1)
let largest_ok xs = List.fold_left Int.max 0 xs
let share_ok a b = Float.max a b
