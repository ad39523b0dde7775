(** Fully qualified traffic classes.

    Externally to a stage, a class is referred to as
    [stage.rule_set.class_name] (paper §3.3), e.g. [memcached.r1.GET].
    Enclave match-action tables match on these names, possibly with
    wildcards on any component. *)

type t = private { stage : string; ruleset : string; name : string; hash : int }
(** [hash] is {!hash}, computed by {!v} and {!of_string}. *)

val v : stage:string -> ruleset:string -> name:string -> t

val to_string : t -> string
(** [to_string c] is ["stage.ruleset.name"]. *)

val of_string : string -> t option
(** Parses ["stage.ruleset.name"]; [None] if not exactly three non-empty
    dot-separated components. *)

val compare : t -> t -> int
(** Orders by stage, then rule-set, then name. *)

val equal : t -> t -> bool
(** Physical equality first, then the hashes, then the components. *)

val hash : t -> int
(** A hash of the three components, equal for equal names; computed once
    when the name is made. *)

val pp : Format.formatter -> t -> unit

(** Patterns over class names, for match-action tables. Each component is
    either exact or the wildcard [*]. *)
module Pattern : sig
  type class_name := t

  type component = Exact of string | Any
  type t = { stage : component; ruleset : component; name : component }

  val exact : class_name -> t
  (** Pattern matching exactly one class. *)

  val any : t
  (** Matches every class. *)

  val of_string : string -> t option
  (** ["memcached.r1.*"], ["*.*.GET"], … *)

  val to_string : t -> string
  val matches : t -> class_name -> bool

  val specificity : t -> int
  (** Number of exact components (0–3); used to order table rules from most
      to least specific. *)
end

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
