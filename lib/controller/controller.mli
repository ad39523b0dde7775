(** The logically centralized Eden controller (paper §3.2, §3.5).

    Holds global visibility (the {!Topology}), computes the slow-timescale
    state that data-plane functions consume (WCMP path matrices, PIAS
    priority thresholds), and programs stages (stage API) and enclaves
    (enclave API) across the fleet.

    Every controller→enclave interaction goes over a fallible
    {!Channel}; transient failures are retried with capped exponential
    backoff and seeded jitter.  Production SDN controllers do not treat
    a push as the truth: they keep the intended configuration and
    reconcile devices against it.  Here that is the desired state, one
    {!Eden_enclave.Config.snapshot} for the whole fleet (every enclave
    is programmed identically by the broadcast API) stamped with the
    generation counter, and every accepted change moves it with
    {!Eden_enclave.Config.next}, the same function each enclave applies
    the op with.  Enclaves the controller could not reach keep
    forwarding on their last-known policy (the consistency story of
    §2.2) and are marked divergent; the anti-entropy {!reconcile} pass
    diffs their reported configuration against the desired state and
    replays the delta, so a restarted or partitioned-then-healed enclave
    converges without a controller restart.  The desired state holds
    controller-owned bindings only: globals an action writes at run time
    (counters, caches) are expected to diverge, and the diff does not
    compare them. *)

type t

(** Capped exponential backoff: attempt [k] waits
    [min (base * 2^(k-1), max) * jitter] with jitter uniform in
    [\[0.5, 1\]] from the controller's seeded stream.  Time is simulated:
    backoff is accounted in the [eden_controller_backoff_ns] gauge, not
    slept. *)
type retry_policy = {
  rp_max_attempts : int;
  rp_base_backoff : Eden_base.Time.t;
  rp_max_backoff : Eden_base.Time.t;
}

val default_retry : retry_policy
(** 5 attempts, 50 µs base, 5 ms cap. *)

type retry_stats = {
  rs_ops : int;  (** Logical ops sent (one per enclave per push). *)
  rs_attempts : int;  (** Channel sends, including retries. *)
  rs_retries : int;
  rs_giveups : int;  (** Transient failures that exhausted the budget. *)
  rs_backoff : Eden_base.Time.t;  (** Total simulated backoff. *)
}
(** A snapshot of the controller's retry cells (see Telemetry below). *)

val create : ?topology:Topology.t -> ?retry:retry_policy -> ?seed:int64 -> unit -> t
val topology : t -> Topology.t

val register_enclave : t -> Eden_enclave.Enclave.t -> unit
(** Wraps the enclave in a fresh fault-free channel.  An enclave
    registered after pushes have happened starts divergent from the
    desired state; run {!reconcile} to converge it. *)

val register_stage : t -> Eden_stage.Stage.t -> unit
val enclaves : t -> Eden_enclave.Enclave.t list
val channels : t -> Channel.t list
val channel_for : t -> Eden_base.Addr.host -> Channel.t option
val stages : t -> Eden_stage.Stage.t list
val find_stage : t -> string -> Eden_stage.Stage.t option

val generation : t -> int
(** Incremented once per accepted desired-state change — never by
    retries or duplicate delivery. *)

val desired : t -> Eden_enclave.Config.snapshot
(** The desired state.  Its rule ids are the ones {!Eden_enclave.Config.next}
    gives, not necessarily any enclave's. *)

val stats : t -> retry_stats
(** Read from the registry cells, the only record of these counts. *)

val divergent_hosts : t -> Eden_base.Addr.host list
(** Enclaves a push or rollback could not fully reach, pending
    reconciliation. *)

(** {2 Enclave programming (broadcast)}

    Every broadcast below is one {!Eden_enclave.Config.op} sent through
    one push driver, which takes it through
    {!Eden_enclave.Config.next} on the desired state once, before the
    broadcast.  An op [next] refuses (a duplicate install, a rule or
    state write for an action or table the desired state does not hold)
    fails without a send.  A push is accepted or refused
    at the desired-state level: a permanent rejection by any enclave
    abandons the change and undoes it failure-tolerantly wherever it
    landed (a failed undo does not abort the remaining undos; the error
    names the hosts left divergent).  The undo is computed from each
    enclave's own ack: an added rule is removed by the rule id that
    enclave returned; a state write restores the desired value, or the
    reading of an unset key (0, the empty array) when the desired state
    held none.  Transient failures do {e not} abandon the change — the
    desired state [next] gave is committed, the unreachable enclaves are
    marked divergent, and {!reconcile} converges them later.

    Pushes are two-phase with respect to the generation counter: the op
    is broadcast at the current generation, and only once the change has
    committed is a [Commit_generation] sent to the enclaves that applied
    it.  An aborted change therefore never advances any watermark —
    acked generation <= desired generation is an invariant. *)

val install_action_everywhere :
  t -> Eden_enclave.Config.install_spec -> (unit, string) result

val remove_action_everywhere : t -> string -> (unit, string) result
(** Idempotent at the enclave, so never rejected: commits the desired
    change and pushes best-effort. *)

val add_table_everywhere : t -> (int, string) result

val add_rule_everywhere :
  t ->
  ?table:int ->
  pattern:Eden_base.Class_name.Pattern.t ->
  action:string ->
  unit ->
  (unit, string) result

val set_global_everywhere : t -> action:string -> string -> int64 -> (unit, string) result

val set_global_array_everywhere :
  t -> action:string -> string -> int64 array -> (unit, string) result
(** Each enclave receives its own copy of the array. *)

(** {2 Reconciliation} *)

type reconcile_outcome =
  | In_sync
  | Repaired of int  (** Ops replayed to converge. *)
  | Unreachable of string  (** Still partitioned; try again later. *)
  | Repair_failed of string

val reconcile_outcome_to_string : reconcile_outcome -> string

val reconcile_enclave : t -> Channel.t -> reconcile_outcome
(** One anti-entropy round: pull the enclave's configuration and acked
    generation, take {!Eden_enclave.Config.diff} of it against the
    desired snapshot, send that op list in order (extra rules and
    actions removed first, then missing tables, actions in install
    order, state, then rules) followed by [Commit_generation], and verify
    by re-pulling.  Convergence is judged by the configuration diff —
    the generation watermark alone proves nothing after a restart wiped
    it. *)

val reconcile : t -> (Eden_base.Addr.host * reconcile_outcome) list

val converged : t -> bool
(** Every registered enclave is reachable, its diff against the desired
    snapshot is empty and its watermark equals the desired
    generation. *)

(** {2 Telemetry}

    The controller's registry ([eden_controller_*]) is the only record
    of its retry and reconcile counts: push ops, attempts, retries,
    giveups, backoff, reconcile rounds and replayed ops are bumped as
    they happen.  Only derived gauges are computed at scrape: the
    desired generation, the generation lag and the divergent-host count.
    [scrape] merges the controller's registry with every channel's
    ([eden_channel_*]) into one fleet-level sample list. *)

val telemetry : t -> Eden_telemetry.Registry.t
(** The controller's own registry, with its derived gauges refreshed on
    every call. *)

val scrape : t -> Eden_telemetry.Registry.sample list

(** {2 Stage programming} *)

val program_stage :
  t ->
  stage:string ->
  ruleset:string ->
  rules:(Eden_stage.Classifier.t * string * string list) list ->
  (unit, string) result
(** Install [(classifier, class, metadata fields)] rules on a registered
    stage.  Stage rules are not part of the desired enclave
    configuration, so the generation does not move. *)

(** {2 Monitoring} *)

type enclave_report = {
  er_host : Eden_base.Addr.host;
  er_placement : Eden_enclave.Enclave.placement;
  er_packets : int;
  er_invocations : int;
  er_dropped : int;
  er_faults : int;
  er_interp_steps : int;
  er_actions : string list;
  er_overhead_pct : float;
      (** Eden components as % of vanilla per-packet cost (Fig. 12's metric). *)
  er_generation : int;  (** The enclave's acked generation watermark. *)
  er_restarts : int;
  er_quarantined : int;  (** Packets that fell through a tripped breaker. *)
}

val collect_reports : t -> enclave_report list
(** Poll every {e reachable} enclave's counters over its channel — the
    monitoring half of the controller loop (switch-style SNMP polling,
    §3.5, applied to hosts).  Partitioned enclaves are absent from the
    result. *)

val pp_reports : Format.formatter -> enclave_report list -> unit

(** {2 Control-plane computations} *)

val pias_thresholds : cdf:(float * float) list -> levels:int -> int64 array
(** Demotion thresholds from a flow-size CDF: the equal-split quantile
    rule (level [i] of [levels] demotes at the [i/levels] quantile).
    Returns [levels - 1] increasing byte counts. *)

val wcmp_path_matrix :
  t -> src:Topology.node -> dst:Topology.node -> labels:(Topology.path * int) list ->
  int64 array
(** Flatten the topology's WCMP weights into the [(label, weight‰) ...]
    encoding the data-plane function reads: element [2i] is the route
    label of path [i], element [2i+1] its weight in parts per 1000.
    [labels] maps each path to the label the switches were programmed
    with; paths without a label are skipped. *)
