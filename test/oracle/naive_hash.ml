let golden = 0x9E3779B97F4A7C15L
let word_mul = 0xBF58476D1CE4E5B9L

let step h w =
  let x = Int64.mul (Int64.logxor h w) word_mul in
  Int64.logxor x (Int64.shift_right_logical x 31)

let words64 s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let seed = Int64.logxor golden (Int64.of_int n) in
  (* lane l starts at seed + l * golden (mod 2^64) *)
  let lanes =
    Array.init 4 (fun l -> Int64.add seed (Int64.mul (Int64.of_int l) golden))
  in
  let blocks = n / 32 in
  for k = 0 to blocks - 1 do
    for l = 0 to 3 do
      lanes.(l) <- step lanes.(l) (Bytes.get_int64_le b ((32 * k) + (8 * l)))
    done
  done;
  (* the whole words after the last block, then the tail, in lane 0 *)
  let pos = ref (32 * blocks) in
  while !pos + 8 <= n do
    lanes.(0) <- step lanes.(0) (Bytes.get_int64_le b !pos);
    pos := !pos + 8
  done;
  if !pos < n then begin
    let tail = Bytes.make 8 '\000' in
    Bytes.blit b !pos tail 0 (n - !pos);
    lanes.(0) <- step lanes.(0) (Bytes.get_int64_le tail 0)
  end;
  step (step (step lanes.(0) lanes.(1)) lanes.(2)) lanes.(3)
