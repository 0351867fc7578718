(* Modules nested in a file. Phase 2 resolves [Nm_outer.Inner.f]
   through file [Nm_outer], whose summary holds the nested modules'
   values among its own. *)
module Inner = struct
  let twice x = x + x
  let pair x = (x, x)
end

module Counter = struct
  let hits = ref 0
  let bump () = hits := !hits + 1
end
