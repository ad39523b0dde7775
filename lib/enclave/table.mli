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

val create : id:int -> t
val id : t -> int

val add_rule : t -> pattern:Eden_base.Class_name.Pattern.t -> action:string -> rule
val remove_rule : t -> int -> bool

val insert_sorted : rule list -> rule -> rule list
(** [rules] (in match order) with [rule] inserted where {!add_rule}
    would put it: after every rule at least as specific. *)

val remove_action_rules : t -> string -> int
(** Drop every rule pointing at the named action; returns how many were
    removed.  Used when an action is uninstalled so the table never
    holds dangling references. *)

val rules : t -> rule list
(** In match order. *)

val lookup : t -> Eden_base.Class_name.t list -> rule option
(** First rule (in specificity order) whose pattern matches any of the
    packet's classes. *)

val pp : Format.formatter -> t -> unit
