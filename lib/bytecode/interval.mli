(** Integer intervals over [int64] for bounds analysis.

    The domain is the complete lattice of closed intervals
    [\[lo, hi\]] with saturating endpoints: [Int64.min_int] and
    [Int64.max_int] act as minus / plus infinity.  All arithmetic is
    conservative — the result interval contains every value the concrete
    operation can produce for operands drawn from the inputs, including
    wrap-around cases (where the transfer function falls back to
    {!top}). *)

type t = { lo : int64; hi : int64 }
(** Invariant: [lo <= hi].  The empty interval is represented by
    {!bottom} checks at the joins; [meet] returns [None] when empty. *)

val top : t
val const : int64 -> t
val of_bounds : int64 -> int64 -> t

val join : t -> t -> t
val meet : t -> t -> t option
val widen : t -> t -> t
(** [widen old next]: endpoints that grew jump to infinity, guaranteeing
    termination of the fixpoint. *)

val equal : t -> t -> bool
val contains : t -> int64 -> bool

(** Transfer functions.  Each returns an over-approximation of the
    concrete [Int64] operation; overflow-prone cases degrade to {!top}. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val rem : t -> t -> t
val neg : t -> t
val booleanish : t
(** The interval [\[0, 1\]] produced by comparisons and [Not]. *)

val rand : t -> t
(** Result interval of [Rand] given the bound's interval: [\[0, hi-1\]]
    when the bound is provably positive, else top-ish non-negative. *)

(** Comparison refinements: given [a op b] known true (or false), return
    the refined interval for [a].  Used on conditional branches. *)

val refine_lt : t -> t -> t option
val refine_le : t -> t -> t option
val refine_gt : t -> t -> t option
val refine_ge : t -> t -> t option
val refine_eq : t -> t -> t option

val to_string : t -> string
val pp : Format.formatter -> t -> unit
