(** Discrete-event engine.

    A binary-heap calendar of closures.  Events scheduled for the same
    instant fire in schedule order (a strict tiebreaker keeps runs
    deterministic).  Times are kept as integer nanoseconds ("ticks");
    times beyond the 63-bit range (146 years) saturate.

    The simulator's per-packet path schedules and reads the clock in
    ticks ({!now_ticks}, {!schedule_at_ticks}, {!schedule_in_ticks}), so
    no time is boxed between a host's transmit and the ACK it gets
    back; the {!Eden_base.Time.t} entry points convert and call them. *)

type t

val create : unit -> t

val now : t -> Eden_base.Time.t

val now_ticks : t -> int
(** [now] in integer nanoseconds. *)

val ticks : Eden_base.Time.t -> int
(** A time in integer nanoseconds, saturating beyond the [int] range. *)

val schedule_at : t -> Eden_base.Time.t -> (unit -> unit) -> unit
(** Schedule at an absolute time; times in the past fire "now". *)

val schedule_in : t -> Eden_base.Time.t -> (unit -> unit) -> unit
(** Schedule after a relative delay (clamped to ≥ 0). *)

val schedule_at_ticks : t -> int -> (unit -> unit) -> unit
(** {!schedule_at} in integer nanoseconds. *)

val schedule_in_ticks : t -> int -> (unit -> unit) -> unit
(** {!schedule_in} in integer nanoseconds; a delay past the [int] range
    saturates. *)

val pending : t -> int

val run : ?until:Eden_base.Time.t -> ?max_events:int -> t -> unit
(** Dispatch events in time order until the calendar empties, the clock
    passes [until], or [max_events] have fired. *)

val step : t -> bool
(** Dispatch one event; [false] when the calendar is empty. *)
