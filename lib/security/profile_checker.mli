(** Generic baseline-profile integrity checking, region by region.

    Both security applications of the paper's rover experiment —
    Tripwire-style file-system checking and the custom kernel-module
    checker — follow the same shape: snapshot a baseline of
    (key, fingerprint) pairs, then repeatedly rescan the live store
    and report divergence. This functor captures that shape once; the
    store is split into [n_regions] deterministic regions (by key
    hash) so a scan can proceed incrementally, which is what lets the
    scheduler-driven detection model observe {e when} each part of the
    store is re-inspected. *)

module type ITEM_STORE = sig
  type store

  val keys : store -> string list
  (** Current item keys, any order. *)

  val generation : store -> int
  (** A counter that changes whenever the set of keys changes (a key
      added or removed). The checker partitions the keys by region
      again only when it has moved since the last partition, so a
      store that changes its keys without moving it is checked against
      a stale partition. *)

  val fingerprint : store -> string -> int64
  (** Fingerprint of one item. @raise Not_found if the key vanished
      between [keys] and [fingerprint] (not possible in this
      single-threaded simulation). *)
end

type violation =
  | Modified of string  (** fingerprint differs from the baseline *)
  | Added of string  (** key absent from the baseline *)
  | Removed of string  (** baseline key no longer present *)

val violation_key : violation -> string
val pp_violation : Format.formatter -> violation -> unit

module Make (S : ITEM_STORE) : sig
  type t

  val create : S.store -> n_regions:int -> t
  (** Snapshots the baseline. [n_regions >= 1]. *)

  val n_regions : t -> int

  val region_of_key : t -> string -> int
  (** Deterministic region of a key (stable across adds/removes). *)

  val check_region : t -> int -> violation list
  (** Rescans one region against the baseline. The baseline and the
      live keys are kept grouped by region, so the check reads only
      this region's part of each; it still fingerprints every live
      item of the region. The live keys are listed and partitioned
      again only after [S.generation] has moved. *)

  val check_all : t -> violation list
  (** Full pass over every region, in region order. *)

  val rebaseline : t -> unit
  (** Accepts the current store state as the new baseline. *)

  val accept : t -> key:string -> unit
  (** Accepts the current state of one item into the baseline: its
      fingerprint is updated (or the entry dropped if the item no
      longer exists). Used for {e authorized} changes — e.g. the
      camera task legitimately appending images to the store it is
      allowed to write. *)
end
