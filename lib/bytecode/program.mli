(** Compiled action-function programs.

    A program is bytecode plus the environment contract the enclave
    runtime must honour: which locals to pre-load from packet / message /
    global state, which array slots exist, what may be written back, and
    the resource limits (operand stack, heap, instruction budget) within
    which the interpreter confines execution. *)

type entity = Packet | Message | Global

val entity_to_string : entity -> string

type access = Read_only | Read_write

val access_to_string : access -> string

type scalar_slot = {
  s_name : string;  (** Field name within the entity, e.g. ["Size"]. *)
  s_entity : entity;
  s_access : access;
  s_local : int;  (** Local index the runtime pre-loads / reads back. *)
}

type array_slot = {
  a_name : string;  (** Array name within the entity, e.g. ["Priorities"]. *)
  a_entity : entity;
  a_access : access;
  a_min_len : int;
      (** Minimum length the runtime promises for this array (0 = no
          promise): an input contract on controller-supplied arrays.
          {!Interp.make_env} and the enclave enforce it before every
          invocation.  The interpreter still checks every access; the
          bounds report's min-length route ({!Absint}) reads it. *)
}
(** Array slots are numbered by their position in [array_slots] and
    addressed by the [Ga*] op-codes. *)

type t = {
  name : string;
  code : Opcode.t array;
  scalar_slots : scalar_slot array;
  array_slots : array_slot array;
  n_locals : int;  (** Total locals, environment slots included. *)
  stack_limit : int;  (** Operand-stack capacity (values). *)
  heap_limit : int;  (** Total heap cells a run may allocate. *)
  step_limit : int;  (** Instruction budget per invocation. *)
}

val default_stack_limit : int
(** 64 values — the paper reports operand stacks on the order of 64 bytes. *)

val default_heap_limit : int
(** 256 cells. *)

val default_step_limit : int

val make :
  name:string ->
  code:Opcode.t array ->
  ?scalar_slots:scalar_slot array ->
  ?array_slots:array_slot array ->
  ?n_locals:int ->
  ?stack_limit:int ->
  ?heap_limit:int ->
  ?step_limit:int ->
  unit ->
  t
(** [n_locals] defaults to one past the highest local mentioned by the
    code or the scalar slots. *)

val strip_unreachable : t -> t
(** Remove instructions no control-flow path from pc 0 can reach and
    remap the surviving jump targets.  Semantics are unchanged; the
    result passes the verifier's strict (no-unreachable-code) mode. *)

(** {2 Access footprint}

    One pass over the code and the slot table answers every question the
    install path asks about which state a program touches: the enclave's
    marshal plan and the concurrency class (paper §3.4.4), which also
    sets how many replicas the sharded front-end runs, both read it. *)

type concurrency = [ `Parallel | `Per_message | `Serial ]
(** A program declaring a writable global slot runs serially; one
    declaring a writable message slot runs one packet per message at a
    time; any other runs fully parallel.  Packet writes are per-packet
    and constrain nothing. *)

val concurrency_to_string : concurrency -> string

type footprint = {
  loads : bool array;  (** Per local: some [Load] reads it. *)
  stores : bool array;  (** Per local: some [Store] writes it. *)
  array_stores : bool array;  (** Per array slot: some [Gastore] names it. *)
  shared_local : bool;  (** Two scalar slots name the same local. *)
  writes : entity list;
      (** Entities with a declared [Read_write] slot, in the order
          [Packet], [Message], [Global]. *)
  concurrency : concurrency;  (** Derived from [writes]. *)
}

val footprint : t -> footprint
(** Every local and array-slot index the code and the slot table name
    must be in range ([n_locals], [array_slots]).
    @raise Invalid_argument otherwise. *)

val find_scalar : t -> string -> scalar_slot option
val find_array : t -> string -> (int * array_slot) option

val pp : Format.formatter -> t -> unit
(** Disassembly listing with the environment contract. *)
