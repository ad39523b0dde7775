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
  type t = Config.Native_ctx.t

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

(** {!Config}'s action and configuration types: [impl], [msg_field_source],
    [install_spec] and [snapshot]. *)
include module type of struct
  include Config.Types
end

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
  mutable cache_hits : int;
      (** Table visits resolved from the class memo alone.  Each table
          visit counts one hit or one miss. *)
  mutable cache_misses : int;  (** Table visits where some class needed a rule scan. *)
  mutable cache_evictions : int;
      (** Class-memo entries dropped when a new class found its table's
          memo holding {!flow_cache_capacity} classes and cleared it. *)
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
(** [flow_cache_capacity] bounds the classes each table's class memo
    holds (default 4096; must be positive).  The memo keeps each class's
    first matching rule, so its size follows the configured classes, not
    the class vectors traffic builds from them. *)

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

(** {2 Enclave API (controller-facing, §3.4.5)}

    Each call that programs the enclave below is one {!Config.op}
    through {!apply}. *)

val apply : t -> Config.op -> (int64, string) result
(** Apply one op as {!Config.next} does to the enclave's configuration.
    An action or rule op builds a new generation (the tables, their run
    arrays and empty class memos) and swaps it in whole; an install also
    builds and verifies the engine, and fails as {!install_action} does.
    A state write goes to the action's {!State} and keeps the
    generation, with its memos.  Errors and payloads are {!Config.next}'s. *)

(** Why an install was refused, for structured controller diagnostics. *)
type install_error =
  | Already_installed of string
  | Rejected_bytecode of Eden_bytecode.Verifier.error
      (** Stack discipline, bad jumps, locals or slots, or read-only
          writes. *)
  | Over_budget of { est_ns : float; budget_ns : float; steps : int }
      (** Static worst case (longest acyclic path, else [step_limit])
          costs more than this enclave's per-invocation budget. *)
  | Bad_contract of string list
      (** Environment-contract problems (unmarshallable packet fields,
          writable metadata-sourced message fields, ...). *)

val install_error_to_string : install_error -> string

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
    Native actions are conservatively serial.  The sharded front-end
    ({!Shard}) reads it too: an enclave with a serial action runs on one
    replica. *)

val action_program : t -> string -> Eden_bytecode.Program.t option
(** The installed bytecode (either engine); [None] for native actions or
    when the action is absent. *)

val action_state : t -> string -> State.t option
(** The action's state store, for inspection. *)

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
(** By id; the same list until an action or rule op swaps the tables. *)

val set_global : t -> action:string -> string -> int64 -> (unit, string) result
val get_global : t -> action:string -> string -> int64 option

val set_global_array : t -> action:string -> string -> int64 array -> (unit, string) result
(** Binds a copy of the array. *)

val get_global_array : t -> action:string -> string -> int64 array option
(** The live binding, which the action may write. *)

val counters : t -> counters
(** A point-in-time copy of the data-path counters, read from the
    telemetry registry's cells ({!telemetry} / {!scrape}). *)

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

val set_trace : t -> Eden_telemetry.Trace.t option -> unit
(** Attach (or detach) a packet-path flight recorder.  With a recorder
    attached, each processed packet costs one sampling check; sampled
    packets additionally record classify/match/action stage timings and
    the decision into the recorder's ring. *)

val trace : t -> Eden_telemetry.Trace.t option

(** {2 Graceful degradation (circuit breaker)} *)

val set_breaker : t -> Breaker.config option -> unit
(** Enable (or disable with [None], the initial state) a {!Breaker} for
    every installed and future action; resets all breaker windows.  With
    the breaker off the data path is byte-for-byte the pre-existing one.
    @raise Invalid_argument on an out-of-range configuration. *)

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

val snapshot : t -> snapshot
(** The configuration the enclave holds, with each action's global
    bindings read from its {!State}. *)

val restore : t -> snapshot -> (unit, string) result
(** [restart], then {!apply} [Config.diff ~desired:sn ~actual:(snapshot t)].
    Counts as a restart.  Rule ids are reassigned. *)

val faults : t -> fault_record list
(** The fault log, most recent first; bounded (a fixed-size
    {!Eden_telemetry.Ring} keeps recording O(1) regardless of fault
    volume).  This is the only reader of the log; the fault {e count}
    lives in the registry as [eden_enclave_faults_total]. *)

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
    recorded; the rest of the system is unaffected (§3.4.3).

    A bytecode action's copy-in and copy-out follow the {!Marshal} plan
    built at install, so a warm invocation allocates only what its
    program does ([Newarr]). *)

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
