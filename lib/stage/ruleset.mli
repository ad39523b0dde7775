(** Classification rule-sets (paper §3.3).

    A rule maps a classifier to a class name and the metadata fields to
    attach: [<classifier> -> \[class_name, {meta-data}\]].  Rules are
    arranged in rule-sets so that a message matches at most one rule per
    rule-set — implemented as ordered first-match.  A message can belong
    to one class per rule-set, so installing several rule-sets tags it
    with several classes (Fig. 6's [r1]/[r2]/[r3]). *)

type rule = {
  rule_id : int;
  classifier : Classifier.t;
  class_name : string;  (** Unqualified; qualified by stage and rule-set. *)
  metadata_fields : string list;
      (** Descriptor fields to copy into the message metadata, e.g.
          [\["msg_size"; "msg_type"\]].  The message identifier is always
          attached, as in every example of Fig. 6. *)
  qualified : Eden_base.Class_name.t;
      (** [stage.ruleset.class_name], built once when the rule is added. *)
}

type t

val create :
  stage:string ->
  classifier_fields:string list ->
  metadata_fields:string list ->
  generation:int ref ->
  string ->
  t
(** [create ~stage ~classifier_fields ~metadata_fields ~generation id]
    makes an empty rule-set named [id] (e.g. ["r1"]) owned by stage
    [stage].  Its rules may classify only on the stage's
    [classifier_fields] and attach only the [metadata_fields] it
    declares.  Every rule change increments [generation]; the rule-sets
    of one stage share one counter, so the stage can tell when any of its
    classifications may have changed. *)

val id : t -> string

val add_rule :
  t -> classifier:Classifier.t -> class_name:string -> metadata_fields:string list -> rule
(** Appends a rule (lowest priority so far), compiles its classifier
    over the stage's classifier fields, and returns it.
    @raise Invalid_argument, leaving the rule-set and generation
    unchanged, if the classifier names a field outside the stage's
    [classifier_fields] (with any pattern, [Any] included), if
    [metadata_fields] names a field the stage does not declare, or if
    the stage, rule-set or class name is not a valid
    {!Eden_base.Class_name} component. *)

val remove_rule : t -> int -> bool
(** [remove_rule t rule_id] returns whether a rule was removed. *)

val rules : t -> rule list
(** In match order. *)

val classify : t -> Classifier.Descriptor.t -> rule option
(** First matching rule, if any: [classify_row] over the descriptor's
    {!Classifier.row}. *)

val classify_row : t -> Classifier.row -> rule option
(** First matching rule for a row in the stage's classifier-field order.
    Runs the compiled tests; allocates nothing.  Agrees with
    [List.find_opt (fun r -> Classifier.matches r.classifier d) (rules t)]. *)

val pp : Format.formatter -> t -> unit
