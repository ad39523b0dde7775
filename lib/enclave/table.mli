(** Enclave match-action tables (paper §3.4.1, Table 4).

    Rules match on {e class names} — not packet headers — and name an
    action function.  A packet carries one class per rule-set that
    matched at a stage, plus classes the enclave's own flow stage
    assigned; a rule fires when its pattern matches any of them.  Rules
    are ordered by pattern specificity (exact components before
    wildcards), then by insertion. *)

type rule = {
  rule_id : int;
  pattern : Eden_base.Class_name.Pattern.t;
  action : string;  (** Name of an installed action function. *)
}

type t
(** A table's id and its rules, as a value: the enclave builds one from
    its configuration whenever the rules change. *)

val make : id:int -> rule list -> t
(** [rules] must be in match order; {!insert_sorted} keeps them so. *)

val id : t -> int

val insert_sorted : rule list -> rule -> rule list
(** [rules] (in match order) with [rule] inserted after every rule at
    least as specific, so equal-specificity rules match in insertion
    order. *)

val rules : t -> rule list
(** In match order. *)

val lookup : t -> Eden_base.Class_name.t list -> rule option
(** First rule (in specificity order) whose pattern matches any of the
    packet's classes. *)

val pp : Format.formatter -> t -> unit
