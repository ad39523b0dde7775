(** Copy-in and copy-out around a bytecode invocation (paper §3.4.3).

    A {!plan} is computed once per installed action from its program's
    effect footprint ({!Eden_bytecode.Program.footprint}):
    - scalar slots the program never loads are not copied in; writable
      slots it never stores are neither copied in nor published;
    - read-only array slots, and writable ones with no reachable store,
      alias the live array (the verifier keeps the program from writing
      through them);
    - a written array slot gets a persistent scratch buffer: blit-in per
      packet, blit-out only on success, preserving fault isolation.
    Values move as raw [int64] bits, so a warm invocation allocates
    nothing. *)

val reset_outputs : Config.outputs -> Eden_base.Packet.t -> unit
(** The outputs that leave [pkt] as it is. *)

val contract_problems :
  Eden_bytecode.Program.t -> (string, Config.msg_field_source) Hashtbl.t -> string list
(** Why the program's environment cannot be marshalled: unknown or
    read-only packet fields, writable metadata-sourced message fields,
    non-global arrays.  [[]] when it can. *)

type plan

val make : Eden_bytecode.Program.t -> (string, Config.msg_field_source) Hashtbl.t -> plan
(** Message fields absent from the sources are [Stateful 0L]. *)

val program : plan -> Eden_bytecode.Program.t
val arrays : plan -> int64 array array

val rebind : plan -> State.t -> Eden_bytecode.Interp.fault option
(** Resolve the plan's names to the store's slots and alias its live
    arrays, again whenever {!State.array_version} moves.  [Some] when a
    bound array is shorter than the program's declared minimum: the
    action must not run. *)

val copy_in :
  plan -> State.t -> Bytes.t -> Eden_base.Packet.t -> Eden_base.Metadata.t -> int64 ->
  now:Eden_base.Time.t -> unit
(** [copy_in plan st io pkt md msg_id ~now].  Metadata-sourced slots are
    copied only when [md] is not the object they were last copied from:
    metadata is immutable and those slots are read-only, so this is
    exact. *)

val copy_out :
  plan -> State.t -> Bytes.t -> Config.outputs -> int64 -> now:Eden_base.Time.t -> unit
(** Publish a successful run: written packet fields to the outputs,
    written scalars to the store, scratch arrays over their live
    bindings. *)
