(** The controller's persistent desired-state store.

    Production SDN controllers do not treat a push as the truth — they
    keep the intended switch configuration and reconcile devices against
    it.  This store holds, per fleet (every enclave is programmed
    identically by the broadcast API), the intended configuration as an
    {!Eden_enclave.Enclave.snapshot}, stamped with the generation
    counter, and changes it with the same {!Eden_enclave.Enclave.op}s
    the enclaves apply.  The anti-entropy pass in {!Controller.reconcile}
    takes {!Eden_enclave.Enclave.diff} of an enclave's reported snapshot
    against this one and replays the resulting ops.

    The store only covers controller-owned keys: globals an action
    function writes at run time (counters, caches) are expected to
    diverge, and the diff does not compare them. *)

type t

val create : unit -> t
(** The configuration of a fresh enclave: no actions, table 0 empty. *)

val generation : t -> int
val bump : t -> unit

val snapshot : t -> Eden_enclave.Enclave.snapshot
(** The intended configuration.  Its rule ids are the store's own (they
    count up across tables, in creation order), not any enclave's. *)

val apply : t -> Eden_enclave.Enclave.op -> (int64, string) result
(** Apply one op to the intended configuration.  Accepts and refuses
    what {!Eden_enclave.Enclave.apply} would on an enclave holding this
    configuration (install-time bytecode checks aside) and answers the
    same kind of payload: the table id for [Add_table], the store's rule
    id for [Add_rule]. *)

val check : t -> Eden_enclave.Enclave.op -> (unit, string) result
(** What {!apply} would answer, without changing the store. *)

val has_action : t -> string -> bool
val global : t -> action:string -> string -> int64 option
val global_array : t -> action:string -> string -> int64 array option
