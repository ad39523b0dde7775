(** Log-linear histogram (HDR-style).

    Values are non-negative integers (nanoseconds, queue depths, ...).
    The first octave [0, 16) is linear with bucket width 1; every later
    octave is split into [n_sub = 8] linear sub-buckets, so relative
    bucket error is bounded by 12.5% everywhere while the total bucket
    count stays fixed at 256 (values above ~16.1e9 clamp into the last
    bucket).  Bucket boundaries are a pure function of the index — two
    histograms always agree on them, which is what makes bucket-wise
    [merge] of per-shard instances exact.

    [observe] touches only an [int array] slot and three mutable [int]
    fields ([count], [sum], [max]); nothing is boxed, nothing is
    allocated. *)

type t

val n_sub : int
(** Sub-buckets per octave (8). *)

val n_buckets : int
(** Total bucket count (256). *)

val bucket_of : int -> int
(** [bucket_of v] is the index of the bucket containing [v] (negative
    values clamp to bucket 0, huge values to the last bucket). *)

val lower_bound : int -> int
(** [lower_bound i] is the smallest value stored in bucket [i].  The
    bucket covers [\[lower_bound i, lower_bound (i+1))]. *)

val create : unit -> t
val observe : t -> int -> unit
val observe_ns : t -> float -> unit
(** [observe_ns t ns] truncates the float nanosecond value to an int and
    observes it. *)

val count : t -> int
val sum : t -> int
val max_value : t -> int
val mean : t -> float
val buckets : t -> (int * int) list
(** Non-empty buckets as [(upper_bound_exclusive, count)], ascending. *)

val bucket_percentile : (int * int) list -> count:int -> max:int -> float -> int
(** [bucket_percentile buckets ~count ~max p] with [p] in [\[0, 100\]],
    over a {!buckets} list (or a scraped one) holding [count]
    observations whose largest is [max]: the upper bound of the bucket
    holding the p-th percentile observation, clamped to [max] so a
    percentile never exceeds the largest observation (0 when empty). *)

val percentile : t -> float -> int
(** [bucket_percentile] over this histogram's buckets. *)

val merge_into : t -> t -> unit
(** [merge_into dst src] adds [src]'s buckets, count, sum and max into
    [dst]. *)

val reset : t -> unit
