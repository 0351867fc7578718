(* Callers of the nested modules' values: each resolves, so D8 proves
   [proven], finds [allocates]'s tuple, and D7 finds the race. None is
   an unknown callee. *)
let[@lint.hot] proven x = Nm_outer.Inner.twice x
let[@lint.hot] allocates x = fst (Nm_outer.Inner.pair x)
let racy n = Parallel.Pool.map (fun i -> Nm_outer.Counter.bump (); i) n
