(* Fixture for rule D6: heap allocation inside [@lint.hot] bindings.
   Linted by test_lint under the pretend path lib/d6_hot_alloc.ml.
   Expected findings: D6 at lines 4, 6, 8, 15 and 22. *)
let[@lint.hot] bad_pair x y = (x, y)

let[@lint.hot] bad_some x = Some x

let[@lint.hot] bad_map xs = List.map (fun x -> x + 1) xs

(* allocation-free hot code: no findings *)
let[@lint.hot] ok_mask b = b land (b - 1)

(* a hot binding local to a cold function is scanned too *)
let outer n =
  let[@lint.hot] cell () = ref n in
  cell ()

(* a trailing [function] is the last parameter, not a closure: only
   what its cases build allocates *)
let[@lint.hot] ok_case x = function 0 -> x | _ -> x + 1

let[@lint.hot] bad_case x = function 0 -> Some x | _ -> None

(* the same allocations outside a hot binding: no findings *)
let pair x y = (x, y)
let cell v = ref v
