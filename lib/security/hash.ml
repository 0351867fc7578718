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

external get64u : string -> int -> int64 = "%caml_string_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* The little-endian word at [i], read without a bounds check: the
   caller guarantees [i + 8 <= String.length s]. *)
let[@inline] unsafe_word s i =
  if Sys.big_endian then bswap64 (get64u s i) else get64u s i

(* One step of a lane: a bijection of the state [h] for a fixed word
   (xor, multiply by an odd constant, xorshift), and of the word for a
   fixed state. *)
let[@inline] step h w =
  let x = Int64.mul (Int64.logxor h w) word_mul in
  Int64.logxor x (Int64.shift_right_logical x 31)

(* The content hash, defined in hash.mli. Four lanes make a 4 KiB
   image four independent chains of 128 dependent multiplies, which
   the CPU overlaps, rather than one chain of 512. The words stay
   [int64]s: [Int64.to_int] would drop bit 63. The four states are
   unboxed local [ref]s as in [fnv1a64]. *)
let words64 s =
  let n = String.length s in
  let blocks = n land lnot 31 and full = n land lnot 7 in
  let seed = Int64.logxor golden (Int64.of_int n) in
  let h0 = ref seed
  and h1 = ref (Int64.add seed golden)
  and h2 = ref (Int64.add seed (Int64.mul 2L golden))
  and h3 = ref (Int64.add seed (Int64.mul 3L golden)) in
  let j = ref 0 in
  while !j < blocks do
    (* unchecked reads: !j + 32 <= blocks <= n *)
    h0 := step !h0 (unsafe_word s !j);
    h1 := step !h1 (unsafe_word s (!j + 8));
    h2 := step !h2 (unsafe_word s (!j + 16));
    h3 := step !h3 (unsafe_word s (!j + 24));
    j := !j + 32
  done;
  while !j < full do
    h0 := step !h0 (String.get_int64_le s !j);
    j := !j + 8
  done;
  if full < n then begin
    (* the 1-7 tail bytes, little-endian, zero-padded: 56 bits fit an
       [int] *)
    let w = ref 0 in
    for k = n - 1 downto full do
      w := (!w lsl 8) lor Char.code (String.unsafe_get s k)
    done;
    h0 := step !h0 (Int64.of_int !w)
  end;
  step (step (step !h0 !h1) !h2) !h3

let combine a b =
  let h = Int64.logxor a (Int64.mul b golden) in
  Int64.mul h prime
