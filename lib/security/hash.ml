let offset_basis = 0xCBF29CE484222325L
let prime = 0x100000001B3L

(* The key hash: [Profile_checker] places a key in its region by it,
   so it fixes the scan order. The loop stays allocation-free: [h] is
   a local [ref] that no closure captures, which ocamlopt turns into a
   mutable variable and keeps unboxed in a register. Only the returned
   [int64] is boxed. The arithmetic is the plain FNV-1a step (xor the
   byte, then multiply modulo 2^64), so the values are those of the
   reference definition bit for bit. *)
let fnv1a64 s =
  let h = ref offset_basis in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        prime
  done;
  !h

let golden = 0x9E3779B97F4A7C15L
let word_mul = 0xBF58476D1CE4E5B9L (* odd, so multiplying is a bijection *)

(* The content hash: one full 64-bit word per step, so a 4 KiB image
   is 512 dependent multiplies rather than 4,096. Each step xors the
   word into the state, multiplies by an odd constant and xorshifts;
   all three are bijections of the state, so for a fixed length a
   change to any one word (any one bit) changes the result. The word
   stays an [int64]: [Int64.to_int] would drop bit 63. The state is
   an unboxed local [ref] as in [fnv1a64]. *)
let words64 s =
  let n = String.length s in
  let full = n land lnot 7 in
  let h = ref (Int64.logxor golden (Int64.of_int n)) in
  let i = ref 0 in
  while !i < full do
    let x = Int64.mul (Int64.logxor !h (String.get_int64_le s !i)) word_mul in
    h := Int64.logxor x (Int64.shift_right_logical x 31);
    i := !i + 8
  done;
  if full < n then begin
    (* the 1-7 tail bytes, little-endian, zero-padded: 56 bits fit an
       [int] *)
    let w = ref 0 in
    for j = n - 1 downto full do
      w := (!w lsl 8) lor Char.code (String.unsafe_get s j)
    done;
    let x = Int64.mul (Int64.logxor !h (Int64.of_int !w)) word_mul in
    h := Int64.logxor x (Int64.shift_right_logical x 31)
  end;
  !h

let combine a b =
  let h = Int64.logxor a (Int64.mul b golden) in
  Int64.mul h prime
