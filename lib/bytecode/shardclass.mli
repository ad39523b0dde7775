(** Install-time shard classification of action functions.

    A multicore enclave front-end ({!Eden_enclave}'s shard runtime) runs
    one data-path replica per worker domain and partitions state by
    flow/message key.  Whether that is safe for a given action is a
    static property of its access footprint ({!Program.footprint}),
    decided here once at install time:

    - [Sharded] — the program writes no global state (packet and
      per-message writes partition cleanly under flow/message-affine
      routing): run-to-completion on every shard, zero locks.
    - [Sharded_delta slots] — every global write is a {e proved pure
      accumulator} ([G <- G + e] where [e] cannot observe [G]): each
      shard keeps a private replica of the named scalar slots and the
      merged value is [base + Σ (shard − base)].  Decisions are exactly
      those of sequential execution because the accumulated value is
      never otherwise observed between the load and the store.
    - [Serialized] — some global effect cannot be partitioned (array
      writes, non-accumulator scalar writes, native code): the shard
      runtime shares one state store across replicas and arms a
      per-action mutex, serializing just this action. *)

type klass =
  | Sharded
  | Sharded_delta of int list
      (** Indices into [scalar_slots] of the proved accumulators (every
          written global scalar slot appears; sorted ascending). *)
  | Serialized

val classify : Program.t -> klass
(** Purely syntactic and sound: a slot is only reported as an
    accumulator when the unique [Load l; e; Add; Store l] occurrence is
    straight-line (no jump lands strictly inside it), [e] is built from
    whitelisted side-effect-free opcodes, and the loaded value provably
    stays at the bottom of the operand stack until the final [Add].
    Anything unproven degrades to [Serialized], never the reverse. *)

val uses_rand : Program.t -> bool
(** Whether any instruction draws randomness — such programs are only
    reproducible against a shard-replayed reference, not against the
    single-stream sequential path. *)

val to_string : klass -> string

val pp : Format.formatter -> klass -> unit
