(* A parameter that shares a top-level value's name: inside [run],
   [omega] is the argument, so D8 cannot see what it calls and must
   say so in a note, not follow the top-level [omega]. *)
let omega x = [ x ]
let[@lint.hot] run ~omega x = List.length (omega x)
