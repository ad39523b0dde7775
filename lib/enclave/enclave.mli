(** The Eden enclave (paper §3.4).

    One enclave sits on each end host's send path, either in the OS
    stack or on a programmable NIC.  It owns:
    - a set of match-action tables keyed on class names ({!Table}),
    - installed action functions, interpreted bytecode or native closures,
    - per-action state stores with copy-in / copy-out semantics ({!State}),
    - its own five-tuple flow stage for packets with no stage metadata,
    - the counts its CPU cost model charges for ({!Cost}).

    The controller programs the enclave through the [install_*] /
    [add_*] / [set_global*] functions — the paper's enclave API
    (§3.4.5). The host network stack calls {!process} on every outgoing
    packet. *)

type placement = Os | Nic

val placement_to_string : placement -> string

(** What an action function decided about a packet. *)
type decision =
  | Forward of {
      queue : int option;  (** Rate-limited queue id, when steered. *)
      charge : int;  (** Bytes to charge that queue (Pulsar); wire size by default. *)
    }
  | Dropped of string  (** Reason (action set [Drop], or buffer overflow). *)

(** Context handed to native (hard-coded) action functions — the baseline
    the paper compares the interpreter against.  Native functions read
    and write the same state store and the same outputs, so the only
    difference from bytecode is the execution engine. *)
module Native_ctx : sig
  type t

  val packet : t -> Eden_base.Packet.t
  val metadata : t -> Eden_base.Metadata.t
  val msg_id : t -> int64
  val now : t -> Eden_base.Time.t
  val rng : t -> Eden_base.Rng.t
  val msg_get : t -> string -> default:int64 -> int64
  val msg_set : t -> string -> int64 -> unit
  val global_get : t -> string -> int64
  val global_set : t -> string -> int64 -> unit
  val global_array : t -> string -> int64 array
  val set_priority : t -> int -> unit
  val set_path : t -> int -> unit
  val set_drop : t -> unit
  val set_queue : t -> int -> unit
  val set_charge : t -> int -> unit
end

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

type counters = {
  mutable packets : int;
  mutable dropped : int;
  mutable invocations : int;
  mutable native_invocations : int;
  mutable compiled_invocations : int;
  mutable faults : int;
  mutable interp_steps : int;  (** Steps retired by either bytecode engine. *)
  mutable quarantined : int;
      (** Packets that matched a rule whose action was quarantined by the
          circuit breaker and fell through to default forwarding. *)
  mutable cache_hits : int;  (** Match-action cache: class vector resolved by probe. *)
  mutable cache_misses : int;  (** Full table lookups (then memoised). *)
  mutable cache_evictions : int;
      (** Resolved entries dropped, over all tables, when a new class
          vector found {!flow_cache_capacity} vectors cached and every
          table's cache was reset. *)
}

type fault_record = {
  fr_action : string;
  fr_fault : Eden_bytecode.Interp.fault;
  fr_time : Eden_base.Time.t;
}

type t

val create :
  ?placement:placement ->
  ?seed:int64 ->
  ?flow_cache_capacity:int ->
  host:Eden_base.Addr.host ->
  unit ->
  t
(** [flow_cache_capacity] bounds the class vectors the match-action
    caches hold (default 4096; must be positive). *)

val host : t -> Eden_base.Addr.host
val placement : t -> placement

val seed : t -> int64
(** The seed this enclave was created with; a sharded front-end derives
    per-shard streams from it ({!Eden_base.Rng.stream_seed}). *)

val flow_cache_capacity : t -> int

val flow_stage : t -> Eden_stage.Stage.t
(** The enclave's own packet-header stage; install five-tuple rule-sets
    here to classify traffic from unmodified applications. *)

val set_enforce : t -> bool -> unit
(** When [false], action functions run but their outputs are not applied
    to packets — the paper's "Baseline (Eden)" configuration that
    measures pure data-path overhead (§5.1). *)

val budget_ns : t -> float
(** Per-invocation admission budget (Eden-added worst-case ns). *)

val set_budget_ns : t -> float -> unit
(** Tighten or relax the admission budget for subsequent installs.
    Defaults to the placement's {!Cost.model.budget_ns}.
    @raise Invalid_argument when the budget is not positive. *)

(** {2 Enclave API (controller-facing, §3.4.5)} *)

(** Why an install was refused, for structured controller diagnostics. *)
type install_error =
  | Already_installed of string
  | Rejected_bytecode of Eden_bytecode.Verifier.error
      (** Stack discipline, read-only writes, or an unproved unchecked
          access. *)
  | Over_budget of { est_ns : float; budget_ns : float; steps : int }
      (** Static worst case (longest acyclic path, else [step_limit])
          costs more than this enclave's per-invocation budget. *)
  | Bad_contract of string list
      (** Environment-contract problems (unmarshallable packet fields,
          writable metadata-sourced message fields, ...). *)

val install_error_to_string : install_error -> string
val pp_install_error : Format.formatter -> install_error -> unit

val install_action_full : t -> install_spec -> (unit, install_error) result
(** Verifies interpreted bytecode, validates the environment contract
    (packet fields must be marshallable, metadata-sourced message fields
    must be read-only), runs cost admission against {!budget_ns}, and
    creates the action's state store. *)

val install_action : t -> install_spec -> (unit, string) result
(** [install_action_full] with the error rendered as a string. *)

val remove_action : t -> string -> int option
(** [None] when no such action is installed.  [Some n] on success, where
    [n] counts the table rules that named the action and were dropped
    with it — the tables never hold dangling references. *)

val action_names : t -> string list

val concurrency_of : t -> string -> Eden_bytecode.Program.concurrency option
(** Concurrency level of the installed program, from its declared slot
    accesses (§3.4.4, {!Eden_bytecode.Program.footprint}, the same pass
    that builds the marshal plan): read-only everywhere → parallel;
    message writes → one packet per message; global writes → serial.
    Native actions are conservatively serial. *)

val add_table : t -> int
(** Creates the next match-action table; returns its id (table 0 is
    created with the enclave and is where processing starts). *)

val add_table_rule :
  t ->
  ?table:int ->
  pattern:Eden_base.Class_name.Pattern.t ->
  action:string ->
  unit ->
  (int, string) result
(** Fails when the action is not installed or the table does not exist. *)

val remove_table_rule : t -> ?table:int -> int -> bool
val tables : t -> Table.t list

val set_global : t -> action:string -> string -> int64 -> (unit, string) result
val get_global : t -> action:string -> string -> int64 option
val set_global_array : t -> action:string -> string -> int64 array -> (unit, string) result
val get_global_array : t -> action:string -> string -> int64 array option

val counters : t -> counters
(** Snapshot of the data-path counters.  Deprecated: the counters now
    live in the telemetry registry ({!telemetry} / {!scrape}); this
    record is rebuilt from the registry cells on every call and is kept
    for existing callers.  Note the change from earlier releases: the
    returned record is a point-in-time copy, not a live view. *)

(** {2 Telemetry}

    Every enclave owns a {!Eden_telemetry.Registry.t} holding its
    data-path counters ([eden_enclave_*_total]).  They include every
    count the cost model charges for, so the counters are the enclave's
    only cost accounting: {!cost} and {!last_process_cost_ns} compute
    model figures from them when read.  When timing is on (the default)
    two histograms also record per-event model figures
    ([eden_enclave_process_model_ns] per packet,
    [eden_enclave_exec_model_ns] per invocation); they are derived from
    the model, not measured.  Cells are plain int fields touched inline
    by the hot path; the registry is only walked at {!scrape} time.
    Sharded replicas each keep their own registry and
    {!Eden_telemetry.Registry.merge} combines the scrapes. *)

val telemetry : t -> Eden_telemetry.Registry.t
val scrape : t -> Eden_telemetry.Registry.sample list

val set_timing : t -> bool -> unit
(** Toggle the two model histograms (counters are always on).  Used by
    the bench harness to measure the instrumentation's own cost. *)

val timing : t -> bool

val set_trace : t -> Eden_telemetry.Trace.t option -> unit
(** Attach (or detach) a packet-path flight recorder.  With a recorder
    attached, each processed packet costs one sampling check; sampled
    packets additionally record classify/match/action stage timings and
    the decision into the recorder's ring. *)

val trace : t -> Eden_telemetry.Trace.t option

(** {2 Sharding runtime hooks}

    Used by {!Shard} to run one enclave replica per worker domain.  For
    an action whose state cannot be partitioned, the shard runtime
    points every replica at a single shared state store and arms a
    per-action mutex, serializing just that action while the rest of the
    data path stays lock-free.  Not intended for controllers. *)

val action_program : t -> string -> Eden_bytecode.Program.t option
(** The installed bytecode (either engine); [None] for native actions or
    when the action is absent. *)

val action_state : t -> string -> State.t option

val set_action_state : t -> string -> State.t -> (unit, string) result
(** Point the action at a (possibly shared) state store; its marshal
    plan rebinds before the next invocation. *)

val set_action_lock : t -> string -> Mutex.t option -> (unit, string) result
(** When set, every invocation of the action runs under the mutex. *)

val set_flow_id_offset : t -> int64 -> unit
(** Shift the base of this enclave's internally-assigned flow ids.
    Replicas sharing a state store (serialized actions) must draw flow
    ids from disjoint ranges, or two different flows on two shards would
    collide on one per-message state entry.  Call before any traffic. *)

(** {2 Graceful degradation (circuit breaker)} *)

(** Per-action breaker over the fault ring: a single faulting invocation
    fails open (§3.4.3); a {e persistently} faulting action is
    quarantined so matching packets stop paying for it and fall through
    to default forwarding, with a half-open probe after a cooldown to
    detect recovery (e.g. the controller fixed the state that made it
    fault). *)
type breaker_config = {
  br_window : int;  (** Sliding window of invocation outcomes, 1–62. *)
  br_min_samples : int;  (** Don't judge before this many outcomes. *)
  br_threshold : float;  (** Fault fraction in (0, 1] that trips it. *)
  br_cooldown : Eden_base.Time.t;  (** Quarantine length before the probe. *)
}

val default_breaker : breaker_config

val set_breaker : t -> breaker_config option -> unit
(** Enable (or disable with [None], the initial state) the breaker for
    every installed and future action; resets all breaker windows.  With
    the breaker off the data path is byte-for-byte the pre-existing one.
    @raise Invalid_argument on an out-of-range configuration. *)

val breaker : t -> breaker_config option

val breaker_state : t -> string -> [ `Closed | `Open | `Half_open ] option
(** [None] when no such action is installed or no breaker is
    configured. *)

val breaker_trips : t -> string -> int
(** How many times the named action's breaker has opened. *)

(** {2 Soft state: restart, snapshot, restore} *)

val restart : t -> unit
(** Model a host/enclave reboot honestly: drop every installed action,
    every table (recreating the empty table 0), all action state, flow
    ids, caches, counters and the fault ring.  The enclave keeps its
    identity (host, placement, seed, budget) and counts restarts; the
    controller must re-converge it via reconciliation. *)

val restarts : t -> int
(** Read from the restart counter cell, which {!restart} carries across
    its registry reset. *)

(** Programmed configuration, captured for restart injection and for the
    reconciliation plane's desired-vs-actual diff. *)
type snapshot = {
  sn_actions : install_spec list;  (** Install order. *)
  sn_globals : (string * (string * int64) list) list;
      (** Per action: written global scalars, sorted by name. *)
  sn_arrays : (string * (string * int64 array) list) list;
      (** Per action: bound global arrays (copied), sorted by name. *)
  sn_rules : (int * Table.rule list) list;  (** Per table id, match order. *)
}

val snapshot : t -> snapshot

val restore : t -> snapshot -> (unit, string) result
(** [restart] then replay the snapshot (actions, state, tables, rules).
    Counts as a restart. *)

val config_equal : snapshot -> snapshot -> bool
(** Configuration equivalence: same actions (name, engine kind, message
    sources) in the same install order, same state bindings, same
    (pattern, action) rule sequence per table.  Rule ids are ignored —
    they are allocation artifacts, not configuration. *)

val snapshot_summary : snapshot -> string

val faults : t -> fault_record list
(** Most recent first; bounded (a fixed-size {!Eden_telemetry.Ring}
    keeps recording O(1) regardless of fault volume).  Deprecated alias
    for reading the telemetry fault log; the fault {e count} lives in
    the registry as [eden_enclave_faults_total]. *)

val cost : t -> Cost.counts
(** Snapshot of what the cost model charges for, read from the registry
    cells ([eden_enclave_packets_total], [_api_handoffs_total],
    [_classifications_total], [_marshals_total], [_interp_steps_total]
    minus [_compiled_steps_total], [_compiled_steps_total],
    [_native_invocations_total]).  Apply {!Cost.overhead_pct} and
    friends with {!cost_model} to get nanoseconds. *)

val cost_model : t -> Cost.model

val last_process_cost_ns : t -> float
(** Eden-added CPU nanoseconds the cost model charges for the most
    recent {!process} call (classification, marshalling,
    interpretation/native execution): the growth of
    [Cost.overhead_ns (cost_model t) (cost t)] since that packet began.
    0 after {!restart}.  The simulated host turns this into data-path
    latency, so interpreted and native configurations genuinely differ
    on the wire. *)

(** {2 Data path} *)

val process : t -> now:Eden_base.Time.t -> Eden_base.Packet.t -> decision
(** Classify, match, execute, apply.  A faulting action function leaves
    the packet unmodified and forwarded (fail-open), with the fault
    recorded; the rest of the system is unaffected (§3.4.3). *)

val process_batch :
  t -> now:Eden_base.Time.t -> Eden_base.Packet.t list -> decision list
(** The paper's batching extension (§6): consecutive packets of the same
    message share one classification / metadata-handoff charge, so IO
    batching lowers the per-packet cycle cost.  Decisions, state updates
    and packet mutations are identical to calling {!process} on each
    packet in order. *)

val note_message_end : t -> msg_id:int64 -> unit
(** Drop per-message state for a completed message in every action. *)

val note_flow_closed : t -> Eden_base.Addr.five_tuple -> unit
(** Release the flow's enclave-assigned message id and state. *)

val expire_messages : t -> now:Eden_base.Time.t -> idle:Eden_base.Time.t -> int
