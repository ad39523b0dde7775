(** Eden stages.

    A stage is any Eden-compliant application, library or service: it
    declares which application-specific fields it can classify on and
    which metadata it can generate, holds controller-installed rule-sets,
    and tags every message it sends with classes and metadata that travel
    with the message's packets down the stack (paper §3.3).

    The controller talks to stages through {!Api}, the paper's Table 3. *)

type info = {
  stage_name : string;
  classifier_fields : string list;
      (** Fields usable in classifiers, e.g. [\["msg_type"; "key"\]]. *)
  metadata_fields : string list;
      (** Metadata the stage can attach, e.g. [\["msg_type"; "msg_size"\]].
          The message identifier is always available and always attached. *)
}

type t
(** A stage is single-writer: {!classify} and {!classes} fill one
    scratch row the stage owns, as {!new_msg_id} moves its message-id
    counter, so one domain at a time may classify on a stage. *)

val create :
  name:string -> classifier_fields:string list -> metadata_fields:string list -> t

val name : t -> string
val info : t -> info

val rulesets : t -> Ruleset.t list
val find_ruleset : t -> string -> Ruleset.t option

val generation : t -> int
(** A counter that moves on every rule change, whether made through
    {!Api} or directly on a rule-set from {!rulesets}.  Results of
    {!classify} and {!classes} for a given descriptor stay valid while it
    does not move. *)

val new_msg_id : t -> int64
(** Allocate a fresh message identifier (unique within the stage). *)

val classify : ?msg_id:int64 -> t -> Classifier.Descriptor.t -> Eden_base.Metadata.t
(** Run every installed rule-set over the descriptor: each classifier
    field is looked up once, into the stage's scratch row, then each
    rule-set's rules, compiled when they were added, run in order.  The result carries
    a message id (fresh unless provided), one fully-qualified class per
    matching rule-set, and the union of the metadata fields requested by
    the matched rules (values taken from the descriptor). *)

val classes : t -> Classifier.Descriptor.t -> Eden_base.Class_name.t list
(** The classes {!classify} would attach, in rule-set order, without
    building metadata. *)

val classes_of_row : t -> Classifier.row -> Eden_base.Class_name.t list
(** [classes] for a row of this stage's classifier fields, in
    [classifier_fields] order: [classes t d = classes_of_row t
    (Classifier.row (Array.of_list (info t).classifier_fields) d)].  The
    row is only read, so a caller may keep its own and refill it: the
    enclave classifies each new flow this way, from one row
    {!Builtin.fill_flow_row} fills from the five-tuple's ints, and
    memoises the result.
    @raise Invalid_argument if the row's length is not the number of
    classifier fields. *)

val qualified_class : t -> ruleset:string -> string -> Eden_base.Class_name.t

(** The Stage API (paper Table 3): what the controller calls. *)
module Api : sig
  val get_stage_info : t -> info
  (** S0. *)

  val create_stage_rule :
    t ->
    ruleset:string ->
    classifier:Classifier.t ->
    class_name:string ->
    metadata_fields:string list ->
    (int, string) result
  (** S1.  Creates the rule-set on first use.  Rejects classifiers over
      fields the stage cannot classify on, metadata the stage cannot
      generate, and class or rule-set names that cannot be qualified;
      returns the rule id. *)

  val remove_stage_rule : t -> ruleset:string -> rule_id:int -> bool
  (** S2.  Returns whether a rule was removed. *)
end

val pp : Format.formatter -> t -> unit
