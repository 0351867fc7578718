(** Reference profile checker: the {!Security.Profile_checker.Make}
    the region-indexed baseline was derived from and is
    differential-tested against ([test/test_security.ml],
    doc/PERFORMANCE.md).

    The baseline is one flat table. Every region check re-derives the
    region of every baseline key to find the removed ones, so each
    check is easy to follow by eye. *)

module Make (S : Security.Profile_checker.ITEM_STORE) : sig
  type t

  val create : S.store -> n_regions:int -> t
  val n_regions : t -> int
  val region_of_key : t -> string -> int
  val check_region : t -> int -> Security.Profile_checker.violation list
  val check_all : t -> Security.Profile_checker.violation list
  val rebaseline : t -> unit
  val accept : t -> key:string -> unit
end
(** Same contract as {!Security.Profile_checker.Make}: over the same
    store and the same operations, every region check must return the
    identical violation list. *)
