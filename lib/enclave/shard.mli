(** Multicore sharded enclave data path.

    The paper's hardware enclave spreads action functions across dozens
    of NIC microengines; this front-end does the software equivalent:
    packets are hashed RSS-style on their stage message id (when
    present) or flow five-tuple onto N worker domains, each owning a
    full enclave replica — its own flow stage, match-action caches,
    per-message state, counters and RNG stream — fed through
    fixed-capacity SPSC rings ({!Spsc}) with batched dequeue.

    The paper's concurrency class ({!Enclave.concurrency_of}, §3.4.4)
    decides how many replicas run:

    - every action {e parallel} or {e per-message}: the requested
      replicas, no locks.  Routing keeps each message (or metadata-less
      flow) on one shard in stream order, so per-message state evolves
      exactly as sequentially.  Global state is read-only; it is
      replicated at creation and republished to every shard, in stream
      position, by {!Ev_set_global}/{!Ev_set_global_array} events
      (epoch semantics).
    - some action {e serial} (it declares a writable global slot, or is
      native): one replica, whatever was requested ({!shards} reports
      1).  Every invocation then runs in stream order, so a
      deterministic run matches the sequential enclave packet for
      packet.  The class reads declared accesses, not the stores the
      code makes: an action that declares a read-write global it never
      stores to also gets one replica.

    With [parallel:false] the same replicas, routing and per-shard RNG
    streams execute inline in stream order — the reference side of the
    differential harness, and the only mode rand-using programs can be
    compared against (shard RNG streams differ from the sequential
    enclave's single stream by construction).

    Known limits, by design: breaker state is per-replica, and the
    discrete-event simulator stays single-threaded — this front-end
    serves the standalone throughput driver. *)

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
    (snapshot/restore, plus its flow-stage rule-sets in order) onto
    [shards] replicas (default: available cores minus one for the
    feeder, at least 1), or onto one when some installed action is
    serial, and seeds replica [i]'s RNG with
    [Rng.stream_seed (Enclave.seed source) i].  [parallel] (default [true]) spawns the worker domains;
    [false] builds the inline serial-replay reference.  [ring_capacity]
    (default 1024) and [batch] (default 64) size each worker's ring and
    dequeue batch.  The source enclave itself is left untouched and
    unshared. *)

val shards : t -> int
val parallel : t -> bool

val classification : t -> (string * Eden_bytecode.Program.concurrency) list
(** Each installed action's concurrency class at creation, in install
    order (native actions report [`Serial]). *)

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
(** Drains, then reads replica 0: a global written by a serial action
    lives on the one replica, and every other global is read-only and
    identical across replicas. *)

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
