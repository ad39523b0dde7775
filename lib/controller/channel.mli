(** Fallible controller→enclave control channel.

    The paper's consistency argument (§2.2, §3.5) is that the enclave is
    a single enforcement point that keeps forwarding on last-known policy
    while the logically centralized controller converges.  That story is
    vacuous if controller pushes are infallible in-process calls, so
    every enclave-programming operation goes through one of these
    channels, which can inject deterministic, seeded faults — drops,
    lost acks, duplicate delivery, delayed delivery, crash-with-restart —
    driven by a scriptable schedule.

    Delivery is exactly-once per op id over this at-least-once transport:
    the receiver memoizes each op id's outcome and replays it for retries
    and duplicates, so an [Ack_lost] retry cannot double-apply (and a
    generation cannot double-bump).  The memo is soft state: an enclave
    restart wipes it along with everything else, which is why the
    controller's desired state — not the channel — is the source of
    truth, and reconciliation the repair mechanism.

    Ops are {!Eden_enclave.Config.op}s, which the receiver applies with
    {!Eden_enclave.Enclave.apply}.  [Commit_generation] changes no
    configuration; on delivery it also advances the acked generation
    watermark. *)

type fault =
  | Drop  (** The op never reaches the enclave; the sender sees [Lost]. *)
  | Ack_lost
      (** The op is applied but the acknowledgement is lost; the sender
          sees [Timeout] and will retry into the memo table. *)
  | Duplicate  (** Delivered twice; the memo makes the second a no-op. *)
  | Delay of int
      (** Held back, then delivered just before the [n]th subsequent
          protocol interaction on this channel; the sender sees [Timeout]
          now. *)
  | Crash_restart
      (** The enclave restarts (wiping all soft state, including the
          delivery memo) before applying the op; the sender sees
          [Crashed]. *)

val fault_to_string : fault -> string

type error =
  | Lost
  | Timeout
  | Crashed
  | Partitioned
  | Rejected of string
      (** The enclave processed the op and refused it — permanent;
          retrying cannot help. *)

val error_to_string : error -> string

val is_transient : error -> bool
(** Everything but [Rejected] — worth retrying. *)

type t

val create : ?seed:int64 -> Eden_enclave.Enclave.t -> t
(** The channel's fault stream is seeded from [seed] and the enclave's
    host id, so a fleet built from one experiment seed is replayable. *)

val enclave : t -> Eden_enclave.Enclave.t
val host : t -> Eden_base.Addr.host

(** {2 Fault scripting} *)

val script : t -> (int * fault) list -> unit
(** [(i, f)] injects fault [f] on the [i]th delivery attempt on this
    channel (0-based, counting every unpartitioned send since creation).
    Replaces any previous script. *)

val set_fault_rate : t -> float -> unit
(** Additionally inject a random fault (never [Crash_restart]) on each
    unscripted delivery with this probability, from the channel's seeded
    stream.  @raise Invalid_argument outside [0, 1]. *)

val set_partitioned : t -> bool -> unit
(** While partitioned every send and read fails with [Partitioned] and
    nothing is delivered (a partition drops traffic; it does not queue
    it).  Delayed ops survive a partition and land after it heals. *)

val partitioned : t -> bool

val inject_restart : t -> unit
(** Restart the enclave now: wipes its soft state and the channel's
    delivery memo, zeroes the acked generation, drops delayed ops. *)

(** {2 Transport} *)

val send : t -> op_id:int64 -> gen:int -> Eden_enclave.Config.op -> (int64, error) result
(** One delivery attempt.  [op_id] must be globally unique per logical
    op and reused verbatim on retry; [gen] is the generation the op
    belongs to, acknowledged monotonically on successful application.
    The [int64] payload is {!Eden_enclave.Enclave.apply}'s (the enclave's
    rule id for [Add_rule], which is what undoes it). *)

val flush_delayed : t -> unit
(** Deliver every delayed op now (e.g. when a chaos scenario heals). *)

val delayed_count : t -> int

(** {2 Reads} *)

val read : t -> (Eden_enclave.Enclave.t -> 'a) -> ('a, error) result
(** Monitoring read ([Partitioned] when unreachable).  Reads are not
    fault-injected — monitoring noise is not what this model studies. *)

val pull_state : t -> (Eden_enclave.Config.snapshot * int, error) result
(** The reconciliation read: the enclave's programmed configuration and
    its acked generation watermark. *)

(** {2 Bookkeeping} *)

val acked_generation : t -> int
(** Highest generation the enclave has acknowledged; 0 after a restart. *)

val divergent : t -> bool
(** Set by the controller when a push gave up on this enclave; cleared
    by a successful reconciliation. *)

val mark_divergent : t -> unit
val clear_divergent : t -> unit
val ops_sent : t -> int
val faults_injected : t -> int
(** Both read the channel's registry cells, the only record of them. *)

(** {2 Telemetry}

    The channel's registry ([eden_channel_*]) holds its protocol
    counters, bumped as ops are sent and faults and crash-restarts
    injected; they have no other home.  Two gauges are derived at scrape:
    the delayed-op backlog and the acked-generation watermark. *)

val telemetry : t -> Eden_telemetry.Registry.t
(** The registry, with its derived gauges refreshed on every call. *)

val scrape : t -> Eden_telemetry.Registry.sample list
