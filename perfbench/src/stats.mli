(** Order statistics for benchmark samples, and the sample-count rule
    that decides which percentiles a run may report. *)

val median : float array -> float
(** Middle value; the mean of the two middle values for an even count.
    @raise Invalid_argument on an empty array. *)

val quantile : float array -> float -> float
(** [quantile a q] for [q] in [(0, 1]] is the nearest-rank quantile:
    the value at rank [ceil (q * n)] of the sorted samples.
    @raise Invalid_argument on an empty array or [q] outside [(0, 1]]. *)

val supports : n:int -> q:float -> bool
(** Whether [n] samples support reporting the [q]-quantile: at least
    ten samples rank strictly above its nearest rank. p99 therefore
    needs 1,000 samples. *)
