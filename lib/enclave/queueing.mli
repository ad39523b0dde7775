(** Enclave egress queueing: token-bucket rate limiters and strict
    priority queues.

    Action functions steer packets into rate-limited queues (Pulsar) and
    set 802.1q priorities (PIAS/SFF); this module supplies both
    mechanisms.  Everything is driven by explicit simulated time — no
    wall clocks. *)

module Token_bucket : sig
  type t

  val create : rate_bps:float -> burst_bytes:int -> t
  (** [rate_bps] is the drain rate in bits per second. *)

  val consume : t -> now:Eden_base.Time.t -> cost_bytes:int -> Eden_base.Time.t
  (** Consumes the tokens and returns the departure time (≥ [now]).
      Callers must release packets no earlier than that. *)
end

(** Strict-priority FIFO set: 8 levels, 7 highest (802.1q PCP). *)
module Priority : sig
  type 'a t

  val levels : int
  val create : ?capacity_bytes:int -> unit -> 'a t
  (** [capacity_bytes] bounds the buffered bytes {e per level} (hardware
      priority queues have independent buffers, so bulk low-priority
      traffic cannot crowd out high-priority packets); default
      unbounded. *)

  val push : 'a t -> prio:int -> size:int -> 'a -> bool
  (** [false] when the packet was dropped for lack of buffer space. *)

  val take : 'a t -> 'a
  (** Highest priority first, FIFO within a level; raises [Queue.Empty]
      when every level is empty.  Allocates nothing. *)

  val pop : 'a t -> 'a option
  (** {!take}, or [None] when empty. *)

  val peek : 'a t -> 'a option
  val is_empty : 'a t -> bool
  val length : 'a t -> int
  val bytes : 'a t -> int
  val drops : 'a t -> int
end
