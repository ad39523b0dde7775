(** Discrete-event engine.

    A binary-heap calendar of closures.  Events scheduled for the same
    instant fire in schedule order (a strict tiebreaker keeps runs
    deterministic).  Times are kept as integer nanoseconds; times beyond
    the 63-bit range (146 years) saturate. *)

type t

val create : unit -> t

val now : t -> Eden_base.Time.t

val schedule_at : t -> Eden_base.Time.t -> (unit -> unit) -> unit
(** Schedule at an absolute time; times in the past fire "now". *)

val schedule_in : t -> Eden_base.Time.t -> (unit -> unit) -> unit
(** Schedule after a relative delay (clamped to ≥ 0). *)

val pending : t -> int

val run : ?until:Eden_base.Time.t -> ?max_events:int -> t -> unit
(** Dispatch events in time order until the calendar empties, the clock
    passes [until], or [max_events] have fired. *)

val step : t -> bool
(** Dispatch one event; [false] when the calendar is empty. *)
