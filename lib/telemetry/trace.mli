(** Sampled packet-path flight recorder.

    A fixed-size ring of trace events recording the per-stage cost-model
    timings of sampled packets: classify -> table match -> action ->
    queue/drop.  Storage is struct-of-arrays, preallocated at creation:
    recording a sampled packet writes into flat [int]/[float]/[string]
    array slots and allocates nothing; an unsampled packet costs one
    integer increment and one comparison ([begin_packet] returning
    [false]).

    Sampling is deterministic 1-in-[every]: the recorder fires on a
    fixed phase of the packet tick derived from its seed, so a replica
    seeded with [Rng.stream_seed seed i] always samples the same packets
    of its stream — traces are replayable from the experiment seed, like
    everything else in the simulator. *)

type t

type verdict =
  | Forwarded
  | Queued of int  (** PIAS-style priority queue index *)
  | Dropped

type event = {
  ev_seq : int;  (** packet tick at which the event was recorded *)
  ev_pkt_id : int64;
  ev_start : Eden_base.Time.t;  (** simulated arrival time *)
  ev_classify_ns : float;
  ev_match_ns : float;
  ev_action : string;  (** "" when no rule matched *)
  ev_action_ns : float;
  ev_total_ns : float;
  ev_verdict : verdict;
}

val create : ?seed:int64 -> ?every:int -> capacity:int -> unit -> t
(** [create ~capacity ()] — ring of [capacity] events, sampling 1 in
    [every] (default 64) packets, phase derived from [seed] (default
    0L).  Requires [capacity > 0] and [every > 0]. *)

val every : t -> int
val capacity : t -> int

val begin_packet : t -> now:Eden_base.Time.t -> pkt_id:int64 -> bool
(** Advance the packet tick; if this packet is sampled, open a slot and
    return [true].  Stage setters apply to the open slot and are no-ops
    when no slot is open. *)

val set_classify : t -> float -> unit
val set_match : t -> float -> unit
val set_action : t -> string -> float -> unit
(** Record one action invocation.  A packet whose table walk invokes
    several (a goto chain) gets their times summed and their names
    joined in walk order, as in [jump>pias]. *)

val current_action_ns : t -> float
(** Action time recorded so far into the open slot (0 when none) — lets
    the instrumentation compute stage residuals without re-reading the
    ring. *)

val finish : t -> verdict:verdict -> total_ns:float -> unit
(** Seal the open slot (no-op when none). *)

val events : t -> event list
(** Recorded events, newest first. *)

val recorded : t -> int
(** Total events recorded since creation (may exceed [capacity]). *)

val clear : t -> unit
(** Drop all events and restart the sampling phase. *)

val pp_dump : Format.formatter -> t -> unit
(** Human-readable dump, newest first. *)
