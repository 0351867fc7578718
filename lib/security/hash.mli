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
(** The content hash, eight bytes per step: each little-endian 64-bit
    word is xored into a 64-bit state, which is multiplied by an odd
    constant and xorshifted. A 1–7 byte tail is packed into one
    zero-padded word, and the length is folded into the seed, so
    ["ab"] and ["ab\000"] differ. Every step is a bijection of the
    state, so between two strings of the same length, changing any one
    word or any one bit changes the result. {!Integrity_checker} and
    {!Kmod_checker} fingerprint contents with it. *)

val combine : int64 -> int64 -> int64
(** Order-dependent combination of two hashes; a bijection in each
    argument when the other is fixed. *)
