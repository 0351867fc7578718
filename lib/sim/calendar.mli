(** Bucketed calendar event queue over a fixed set of slots — the
    priority queue behind the skip-ahead engine's release calendar
    (doc/SIMULATOR.md).

    A calendar queue (Brown, CACM 1988) hashes each pending event into
    a bucket by [key / width mod n_buckets]; buckets are short sorted
    lists, so with a width near the mean inter-event gap both insert
    and extract-min are O(1) amortized. This implementation is
    specialised for the simulator:

    - Entries are {e slot indices} [0 .. slots-1] (task indices in the
      engine), each enqueued at most once. All storage is
      preallocated flat [int] arrays — bucket lists are intrusive
      singly-linked lists threaded through a [next] array — so
      {!add}, {!peek_min} and {!pop_min} never allocate
      (hydra_lint rule D6 gates this).
    - Keys are integer times (ticks). The queue is {e monotone}:
      every key added must be [>= ] the key of the last {!pop_min}
      (release times never move backwards). This is what lets the
      minimum search start its bucket-year scan at the last popped
      time instead of zero.
    - Ties pop in ascending slot order, matching the task-array
      iteration order of the reference stepper — part of the
      bit-identity contract between the engine and its test oracle.

    Behaviour is a pure function of the call sequence: no hashing of
    boxed values, no randomization, no wall clock. *)

type t

val create : slots:int -> width:int -> t
(** [create ~slots ~width] is an empty queue accepting slot indices
    [0 .. slots-1], with bucket width [width] ticks (clamped to
    [>= 1] and rounded up to a power of two so bucket math is shifts,
    not division; pick the mean inter-event gap for O(1) behaviour —
    any value is correct, only speed varies). The bucket count is the
    smallest power of two [>= max 4 slots].
    @raise Invalid_argument if [slots < 1]. *)

val size : t -> int
(** Number of enqueued slots, in O(1). *)

val mem : t -> int -> bool
(** [mem q i] is true when slot [i] is currently enqueued, in O(1). *)

val key : t -> int -> int
(** [key q i] is the key slot [i] was enqueued with (meaningless when
    [not (mem q i)]). O(1). *)

val add : t -> int -> key:int -> unit
(** [add q i ~key] enqueues slot [i] at [key] ticks. O(bucket
    length) — O(1) amortized when [width] matches the event density.
    @raise Invalid_argument if [i] is out of range or already
    enqueued, or if [key] precedes the last {!pop_min} (monotonicity
    violation). *)

val peek_min : t -> int
(** The minimum key over all enqueued slots, or [max_int] when the
    queue is empty. Amortized O(1) (the scan position is cached and
    revalidated only after a {!pop_min} or a smaller-key {!add}). *)

val pop_min : t -> int
(** Dequeues and returns the slot with the minimum key; among equal
    keys, the smallest slot index. Amortized O(1).
    @raise Invalid_argument on an empty queue. *)
