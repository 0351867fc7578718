(** Reference content hash: {!Security.Hash.words64} as its definition
    reads, differential-tested against it ([test/test_security.ml],
    doc/PERFORMANCE.md §5).

    The four lane states sit in an [int64 array], every word is read
    with the bounds-checked [Bytes.get_int64_le], and the 1–7 byte
    tail is copied into a zero-filled word, so each step is easy to
    follow by eye. *)

val words64 : string -> int64
(** Same value as {!Security.Hash.words64} on every string. *)
