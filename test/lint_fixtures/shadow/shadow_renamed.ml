(* [shadow.ml] with the top-level value renamed: the same note. *)
let bound x = [ x ]
let[@lint.hot] run ~omega x = List.length (omega x)
