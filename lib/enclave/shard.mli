(** Multicore sharded enclave data path.

    The paper's hardware enclave spreads action functions across dozens
    of NIC microengines; this front-end does the software equivalent:
    packets are hashed RSS-style on their stage message id (when
    present) or flow five-tuple onto N worker domains, each owning a
    full enclave replica — its own flow stage, match-action caches,
    per-message state, counters and RNG stream — fed through
    fixed-capacity SPSC rings ({!Spsc}) with batched dequeue.

    Install-time effect footprints ({!Eden_bytecode.Shardclass}) decide,
    per action, how its state partitions:

    - {e sharded} (no global writes): run-to-completion on the owning
      shard, zero locks; global read-only state is replicated at
      creation and republished to every shard, in stream position, by
      {!Ev_set_global}/{!Ev_set_global_array} events (epoch semantics).
    - {e sharded-delta} (all global writes proved pure accumulators):
      each shard accumulates privately; {!get_global} merges as
      [base + Σ (shard − base)].  Decisions are exactly sequential.
    - {e serialized} (anything else, including native actions): every
      replica shares one state store and the action runs under a
      per-action mutex — only the offending action serializes, the rest
      of the data path stays lock-free.  Invocation {e order} across
      shards is scheduling-dependent for such actions, so equivalence
      with sequential execution holds for the merged final state only up
      to commutative reordering.

    Routing is per-key FIFO: packets of one message (or of one
    metadata-less flow) land on one shard in stream order, so per-key
    state evolves exactly as sequentially.  With [parallel:false] the
    same replicas, routing and per-shard RNG streams execute inline in
    stream order — the reference side of the differential harness, and
    the only mode rand-using programs can be compared against (shard
    RNG streams differ from the sequential enclave's single stream by
    construction).

    Known limits, by design: custom flow-stage rule-sets beyond the
    built-in ALL rule are not replicated (snapshots do not capture
    them), breaker state is per-replica, and the discrete-event
    simulator stays single-threaded — this front-end serves the
    standalone throughput driver. *)

type t

type event =
  | Ev_packet of Eden_base.Time.t * Eden_base.Packet.t
  | Ev_set_global of { action : string; name : string; value : int64 }
  | Ev_set_global_array of { action : string; name : string; values : int64 array }
      (** Control events are applied by every shard at the exact stream
          position the event occupies in that shard's feed — packets
          enqueued before it see the old epoch, packets after it the new
          one, per shard deterministically. *)

val create :
  ?shards:int ->
  ?parallel:bool ->
  ?ring_capacity:int ->
  ?batch:int ->
  Enclave.t ->
  (t, string) result
(** [create source] replicates [source]'s programmed configuration
    (snapshot/restore) onto [shards] replicas (default: available cores
    minus one for the feeder, at least 1), seeds replica [i]'s RNG with
    [Rng.stream_seed (Enclave.seed source) i], classifies every
    installed action and wires shared stores + locks for serialized
    ones.  [parallel] (default [true]) spawns the worker domains;
    [false] builds the inline serial-replay reference.  [ring_capacity]
    (default 1024) and [batch] (default 64) size each worker's ring and
    dequeue batch.  The source enclave itself is left untouched and
    unshared. *)

val shards : t -> int
val parallel : t -> bool

val classification : t -> (string * Eden_bytecode.Shardclass.klass) list
(** Install-order classification actually wired at creation (native
    actions report [Serialized]). *)

val process_stream : t -> event array -> Enclave.decision option array
(** Feed the whole stream, wait for every shard to drain, and return
    per-event decisions ([None] for control events).  Routing, per-shard
    execution and control-event application are identical in parallel
    and serial mode. *)

val feed : t -> now:Eden_base.Time.t -> Eden_base.Packet.t -> unit
(** Fire-and-forget enqueue for throughput measurement: the decision is
    discarded, backpressure still applies.  Pair with {!drain}. *)

val drain : t -> unit
(** Block until every enqueued item has been executed. *)

val counters : t -> Enclave.counters
(** Drains, then returns the field-wise sum over all replicas (a fresh
    record).  Note per-shard match-action caches warm independently, so
    cache hit/miss splits differ from a sequential run even when every
    decision is identical. *)

val get_global : t -> action:string -> string -> int64 option
(** Drains, then reads the merged value: delta accumulators merge as
    [base + Σ (shard − base)]; all other globals are identical across
    replicas (or live in the one shared store) and read directly. *)

val get_global_array : t -> action:string -> string -> int64 array option

val backpressure_waits : t -> int
(** Total producer parks on full rings (0 in serial mode). *)

val consumer_parks : t -> int
(** Total worker parks on empty rings (0 in serial mode). *)

(** {2 Telemetry}

    Each replica owns its own registry (contention-free hot path); the
    front-end adds ring/feeder metrics ([eden_shard_*]: enqueue count,
    occupancy histogram, park counters, per-domain processed).  [scrape]
    drains, syncs worker-side numbers, and merges all registries into
    cluster totals. *)

val scrape : t -> Eden_telemetry.Registry.sample list

val set_timing : t -> bool -> unit
(** Toggle stage-timing histograms on every replica. *)

val attach_traces : t -> ?capacity:int -> every:int -> unit -> unit
(** Attach a flight recorder to every replica, seeded with the replica's
    own [Rng.stream_seed]-derived seed so sampling is deterministic per
    shard (default [capacity] 256). *)

val detach_traces : t -> unit
val worker_trace : t -> int -> Eden_telemetry.Trace.t option

val worker_errors : t -> int
(** Exceptions escaping {!Enclave.process} on workers — always 0 unless
    something is badly wrong; surfaced so tests can assert it. *)

val stop : t -> unit
(** Deliver in-band stop tokens and join the worker domains; idempotent.
    The instance rejects further streams afterwards. *)
