(** The fingerprint primitives of the integrity checkers. Neither is
    cryptographic; the experiments only need a deterministic value that
    changes when the input changes (the paper's Tripwire uses real
    digests, but the detection-latency claim is independent of the
    digest function: detection depends on when the simulated scan
    reaches the tampered object, and on whether its digest changed). *)

val fnv1a64 : string -> int64
(** FNV-1a 64 of a byte string, one byte per step. The key hash:
    {!Profile_checker} assigns each key its region by it, which fixes
    the scan order and hence the detection latency, so it must not
    change. *)

val words64 : string -> int64
(** The content hash, eight bytes per step in four independent lanes.
    The seed is [0x9E3779B97F4A7C15] xor the length, and lane [l]
    (0–3) starts at seed + [l] × [0x9E3779B97F4A7C15] (mod 2{^64}).
    Lane [l] takes little-endian word [l] of each 32-byte block; the
    whole words after the last block, then a 1–7 byte tail packed into
    one zero-padded word, go through lane 0. A step xors the word into
    the lane's state, multiplies by [0xBF58476D1CE4E5B9] and xorshifts
    right by 31. The result folds lanes 1, 2 and 3, in that order,
    into lane 0 with the same step. The length in the seed makes
    ["ab"] and ["ab\000"] differ. A step is a bijection of the state
    for a fixed word and of the word for a fixed state, and the fold
    is a bijection in each lane's final state, so between two strings
    of the same length, changing any one word or any one bit changes
    the result. {!Integrity_checker} and {!Kmod_checker} fingerprint
    contents with it. *)

val combine : int64 -> int64 -> int64
(** Order-dependent combination of two hashes; a bijection in each
    argument when the other is fixed. *)
