(** Classifier expressions (paper §3.3, Fig. 6).

    A stage describes each application message with a {e descriptor} — the
    application-specific fields it knows about the message ([msg_type],
    [key], [url], [msg_size], [tenant], the five-tuple, …).  A classifier
    is a conjunction of per-field patterns over such descriptors; the
    paper's rule [<GET, "a">] becomes
    [[ ("msg_type", eq_str "GET"); ("key", eq_str "a") ]]. *)

module Descriptor : sig
  type t

  val empty : t
  val of_list : (string * Eden_base.Metadata.value) list -> t
  val add : string -> Eden_base.Metadata.value -> t -> t
  val find : string -> t -> Eden_base.Metadata.value option
  val fields : t -> (string * Eden_base.Metadata.value) list
  val pp : Format.formatter -> t -> unit
end

type pattern =
  | Any  (** ["-"] / ["*"]: field may even be absent *)
  | Present  (** field must exist, any value *)
  | Eq of Eden_base.Metadata.value
  | Ne of Eden_base.Metadata.value
  | In_set of Eden_base.Metadata.value list
  | Range of int64 * int64  (** integer field within [lo, hi] inclusive *)
  | Prefix of string  (** string field starting with the given prefix *)

val pattern_to_string : pattern -> string

type t = (string * pattern) list
(** Conjunction over fields; [[]] matches everything. *)

val eq_str : string -> pattern
val eq_int : int -> pattern

val matches : t -> Descriptor.t -> bool
val to_string : t -> string
val pp : Format.formatter -> t -> unit

val fields_referenced : t -> string list
(** Field names the classifier inspects, deduplicated, in order. *)

(** {1 Compiled form}

    Stages compile each rule's classifier once, when the rule is
    installed, into tests over the positions of the stage's classifier
    fields.  Classifying a message then looks each field up once
    ({!row}) and runs the tests without allocating.  {!matches} is the
    reference the compiled form agrees with. *)

type row = Eden_base.Metadata.value option array
(** One message's values for a stage's classifier fields, in the order
    the stage declares them; [None] where the message lacks the field. *)

val row : string array -> Descriptor.t -> row
(** [row fields d] looks up each of [fields] in [d] once. *)

type compiled

val compile : fields:string array -> t -> compiled
(** Tests over the indices of [fields]; [Any] compiles to no test.
    @raise Invalid_argument if the classifier names a field (with any
    pattern, [Any] included) that is not in [fields]. *)

val matches_row : compiled -> row -> bool
(** [matches_row (compile ~fields c) (row fields d) = matches c d]. *)
