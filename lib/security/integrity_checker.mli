(** Tripwire analogue: file-system integrity checking over the
    synthetic {!Filesystem} (paper Sec. 5.1.2 — Tripwire watches the
    rover's image data-store). An instantiation of {!Profile_checker}
    with word-wise content fingerprints ({!Hash.words64}). *)

module Store : Profile_checker.ITEM_STORE with type store = Filesystem.t
(** The view of the store the checker scans: the sorted paths, the
    store's {!Filesystem.generation}, and {!Hash.words64} of a file's
    content as its fingerprint. *)

type t

val create : Filesystem.t -> n_regions:int -> t
(** Snapshots the baseline database of the store. *)

val n_regions : t -> int

val region_of_key : t -> Filesystem.path -> int
(** Deterministic region a path belongs to. *)

val check_region : t -> int -> Profile_checker.violation list
(** Re-hashes one region of the store against the baseline. *)

val check_all : t -> Profile_checker.violation list
val rebaseline : t -> unit

val accept : t -> key:Filesystem.path -> unit
(** Accepts the current state of one file into the baseline
    (authorized writes; see {!Profile_checker}). *)

val tamper_file : Filesystem.t -> Filesystem.path -> unit
(** The "ARM shellcode" attack effect of Sec. 5.1.3(i): corrupts the
    content of one file in the image store.
    @raise Not_found if the file does not exist. *)
