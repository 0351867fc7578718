let offset_basis = 0xCBF29CE484222325L
let prime = 0x100000001B3L

(* The integrity scan spends nearly all of its time here, so the loop
   is written to stay allocation-free: [h] is a local [ref] that no
   closure captures, which ocamlopt turns into a mutable variable and
   keeps unboxed in a register. Only the returned [int64] is boxed.
   The arithmetic is the plain FNV-1a step (xor the byte, then
   multiply modulo 2^64), so the values are those of the reference
   definition bit for bit. *)
let fnv1a64 s =
  let h = ref offset_basis in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        prime
  done;
  !h

let combine a b =
  let h = Int64.logxor a (Int64.mul b 0x9E3779B97F4A7C15L) in
  Int64.mul h prime

let fnv1a64_list l =
  List.fold_left (fun acc s -> combine acc (fnv1a64 s)) offset_basis l
