(** An enclave's programmed configuration as a value (paper §3.4.5).
    One {!op} is the one change to a configuration, and {!next} the one
    statement of what it does: each enclave and the controller's desired
    state move by it, and {!diff} produces ops.  Nothing here runs; the
    {!Enclave} builds its data path from these values. *)

(** An invocation's outputs, applied to the packet after a successful
    run (and only then). *)
type outputs = {
  mutable o_priority : int;
  mutable o_path : int;
  mutable o_drop : bool;
  mutable o_queue : int;
  mutable o_charge : int;
  mutable o_goto : int;
}

(** What a native action is handed; the enclave builds one per
    invocation, and {!Enclave.Native_ctx} reads and writes it. *)
module Native_ctx : sig
  type t = {
    nc_packet : Eden_base.Packet.t;
    nc_metadata : Eden_base.Metadata.t;
    nc_msg_id : int64;
    nc_now : Eden_base.Time.t;
    nc_rng : Eden_base.Rng.t;
    nc_state : State.t;
    nc_out : outputs;
  }
end

(** The action and configuration types, which {!Enclave} re-exports. *)
module Types : sig
  type impl =
    | Interpreted of Eden_bytecode.Program.t
    | Compiled of Eden_bytecode.Program.t
        (** Same bytecode, verified identically, but translated to threaded
            closure code at install time ({!Eden_bytecode.Compiled}) —
            observationally identical to [Interpreted], without the
            per-step dispatch cost. *)
    | Native of (Native_ctx.t -> unit)

  (** Where a message-entity scalar comes from when marshalled into an
      invocation environment. *)
  type msg_field_source =
    | Stateful of int64  (** Enclave message state; the payload is the default. *)
    | Metadata_int of string  (** An integer metadata field of the packet. *)
    | Metadata_flag of string * string
        (** [Metadata_flag (field, v)]: 1 when the (string) metadata field
            equals [v], else 0 — e.g. [("operation", "READ")]. *)

  type install_spec = {
    i_name : string;
    i_impl : impl;
    i_msg_sources : (string * msg_field_source) list;
        (** Message fields not listed default to [Stateful 0L]. *)
  }

  (** Programmed configuration as a value: what an enclave reports to the
      reconciliation plane, and the controller's desired state. *)
  type snapshot = {
    sn_actions : install_spec list;  (** Install order. *)
    sn_globals : (string * (string * int64) list) list;
        (** Per action: written global scalars, sorted by name. *)
    sn_arrays : (string * (string * int64 array) list) list;
        (** Per action: bound global arrays (copied), sorted by name. *)
    sn_rules : (int * Table.rule list) list;
        (** Every table, by id, with its rules in match order. *)
  }
end

include module type of struct
  include Types
end

type op =
  | Install_action of install_spec
  | Remove_action of string
  | Add_table
  | Add_rule of {
      table : int;
      pattern : Eden_base.Class_name.Pattern.t;
      action : string;
    }
  | Remove_rule of { table : int; rule_id : int }
  | Set_global of { action : string; name : string; value : int64 }
  | Set_global_array of { action : string; name : string; value : int64 array }
  | Commit_generation
      (** No-op at the enclave; the control channel advances its acked
          generation watermark on it.  Closes a reconciliation round. *)

val op_to_string : op -> string

val empty : snapshot
(** A fresh enclave's configuration: no actions, table 0 empty. *)

val next : snapshot -> op -> (snapshot * int64, string) result
(** [op] applied to a configuration, with the payload an enclave acks.
    Refused: installing an action the configuration holds, a rule or
    state write naming an absent action, and a rule for an absent table.
    Removes are idempotent (removing an absent action or rule succeeds).
    The payload is op-specific: the new table's id for [Add_table]; for
    [Add_rule] the new rule's id, one more than the largest rule id in
    any table (0 when there is none); the number of rules dropped for
    [Remove_action] and [Remove_rule]; else 0.  [Set_global_array]
    binds a copy of the array. *)

val refusal : snapshot -> op -> string option
(** Why {!next} refuses [op], if it does. *)

val diff : desired:snapshot -> actual:snapshot -> op list
(** The ops that take an enclave configured as [actual] to [desired], in
    the order they must be sent: extra rules and extra actions removed,
    missing tables added, missing actions installed (in install order),
    stale scalars then arrays written, missing rules added (table by
    table, in match order).  An action is identified by its name, engine
    kind, program name and message sources; a rule by its table, pattern
    and action — rule ids are not configuration.  A table's rules are
    compared as a sequence in match order.  The comparison is asymmetric
    on state: only the bindings [desired] holds are compared, so state an
    action writes at run time never shows as drift.  [[]] means [actual]
    is in sync with [desired]. *)

val config_equal : snapshot -> snapshot -> bool
(** [diff] is empty both ways: the same actions, the same state bindings,
    the same tables holding the same (pattern, action) rules. *)
