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
    fields.  Classifying a message then fills a {!row} with each field's
    value once and runs the tests.  Each test is compiled for the kind of
    value it compares with, so integer equality, sets and ranges compare
    the row's unboxed [int64]s; filling a row and running the tests
    allocate nothing.  {!matches} is the reference the compiled form
    agrees with. *)

type row
(** One message's values for a stage's classifier fields, in the order
    the stage declares them.  Per field it holds whether the field is
    absent, an integer or a string, an unboxed [int64] and a string slot.
    A row is mutable and meant to be reused: each fill overwrites every
    field's kind, so a value of another kind or an absent field never
    shows through from an earlier message. *)

val make_row : int -> row
(** A row of [n] fields, all absent. *)

val row_length : row -> int

val fill_row : row -> string array -> Descriptor.t -> unit
(** [fill_row r fields d] looks each of [fields] up in [d] once and
    stores its value, or its absence, at the field's index.
    @raise Invalid_argument if [r]'s length is not [fields]'. *)

val row : string array -> Descriptor.t -> row
(** A fresh row, filled by {!fill_row}. *)

val set_int : row -> int -> int -> unit
(** [set_int r i v] sets field [i] to the integer [v].
    @raise Invalid_argument if [i] is not a field of [r]. *)

val set_str : row -> int -> string -> unit
(** [set_str r i s] sets field [i] to the string [s].
    @raise Invalid_argument if [i] is not a field of [r]. *)

type compiled

val compile : fields:string array -> t -> compiled
(** Tests over the indices of [fields]; [Any] compiles to no test.
    @raise Invalid_argument if the classifier names a field (with any
    pattern, [Any] included) that is not in [fields]. *)

val matches_row : compiled -> row -> bool
(** [matches_row (compile ~fields c) r = matches c d] whenever [r]'s
    fields hold [d]'s values, absences included: after
    [fill_row r fields d], whatever [r] held before. *)
