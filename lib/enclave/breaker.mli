(** Per-action circuit breaker.  Fail-open covers one faulting
    invocation (§3.4.3); a breaker covers a faulting {e action}.  When
    the fault rate over a sliding window of invocations crosses the
    threshold, the action is quarantined: matching packets fall through
    to default forwarding without invoking it.  After a cooldown one
    probe invocation decides between recovery and another quarantine. *)

type config = {
  br_window : int;  (** Sliding window of invocation outcomes, 1–62. *)
  br_min_samples : int;  (** Don't judge before this many outcomes. *)
  br_threshold : float;  (** Fault fraction in (0, 1] that trips it. *)
  br_cooldown : Eden_base.Time.t;  (** Quarantine length before the probe. *)
}

val default : config

type t

val create : unit -> t

val reset : t -> unit
(** Back to {!create}'s state, closed with an empty window; the trip
    count stays. *)

val admit : t -> now:Eden_base.Time.t -> bool
(** May the action run now?  An open breaker whose cooldown has elapsed
    turns half-open and admits the probe. *)

val record : t -> config -> now:Eden_base.Time.t -> faulted:bool -> unit
(** An admitted invocation's outcome. *)

val state : t -> [ `Closed | `Open | `Half_open ]
val trips : t -> int
