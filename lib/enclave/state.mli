(** Enclave state store.

    Each installed action function owns one store holding its global state
    (scalars and arrays) and its per-message state (scalars keyed by
    message identifier).  The enclave runtime performs copy-in / copy-out
    around every invocation: the interpreter works on a snapshot, and a
    faulting program publishes nothing (paper §3.4.3–3.4.4).

    Names are resolved to slots.  A global scalar or message field name
    gets a dense slot the first time anything names it, and keeps it for
    the store's lifetime.  Scalar values are stored unboxed, with a
    written flag per slot: global scalars in one slot vector indexed by
    global slot, each message entry's fields in one indexed by field
    slot.  Any [int64], [-1L] and the extremes included, is an ordinary
    value.  Messages are found through an [int64]-keyed table with a
    multiplicative hash and [Int64.equal].  The enclave's marshal plans
    resolve their names once, when bound to a store, and then copy
    values by slot between the store and the machine's unboxed I/O slots
    ({!entry_load}, {!entry_store}, {!global_load}, {!global_store}), so
    copy-in and write-back box nothing.  The by-name functions below are
    the boxed [int64] interface over the same store, for native actions,
    the controller, tests and tools.

    Message entries record their last-touch time so idle messages can be
    expired, and are dropped eagerly when the transport signals message
    end. *)

type t

val create : unit -> t

(** {2 Global state} *)

val global_get : t -> string -> int64
(** 0 for never-written fields. *)

val global_set : t -> string -> int64 -> unit

val global_array : t -> string -> int64 array
(** The live array ([[||]] if unset).  Read-only users may alias it;
    writers must go through {!global_array_set} or copy-out. *)

val global_array_set : t -> string -> int64 array -> unit

val global_bindings : t -> (string * int64) list
(** Every written global scalar, sorted by name — the reconciliation
    plane's view of the store.  A name that was only resolved to a slot
    is not listed. *)

val global_array_bindings : t -> (string * int64 array) list
(** Every bound global array (live, not copied), sorted by name. *)

val array_version : t -> int
(** Incremented by every {!global_array_set}.  The enclave's marshal
    plans cache aliases into the live arrays; a version mismatch tells
    them to rebind before the next invocation.  In-place mutation of an
    array obtained from {!global_array} does not change the version (the
    binding is unchanged). *)

(** {2 Per-message state} *)

val msg_get : t -> msg:int64 -> field:string -> default:int64 -> now:Eden_base.Time.t -> int64
(** Reads a message field, creating the entry (and touching it) as
    needed.  A field never written for this message returns [default]
    and stores it. *)

val msg_set : t -> msg:int64 -> field:string -> int64 -> now:Eden_base.Time.t -> unit

val msg_known : t -> msg:int64 -> bool
val msg_count : t -> int

val msg_end : t -> msg:int64 -> unit
(** Drop a message's state (flow terminated, message completed). *)

val expire : t -> now:Eden_base.Time.t -> idle:Eden_base.Time.t -> int
(** Drop messages idle longer than [idle]; returns how many were dropped. *)

(** {2 Slot-resolved access}

    What the by-name functions do, split so that the name lookups happen
    once, and unboxed: a value moves between a slot and the 8 bytes of a
    caller's buffer at a byte offset ([Bytes.get_int64_ne] layout) with
    no [int64] boxed.  A slot is valid for the store that issued it, for
    as long as that store lives.  Nothing here hashes a string or raises
    on a present message.  A buffer offset out of range raises
    [Invalid_argument]. *)

val global_slot : t -> string -> int
(** The slot of a global scalar, registering the name if new.  A new
    slot reads as never written. *)

val global_load : t -> int -> Bytes.t -> int -> unit
(** [global_load t slot buf off] writes the global's value at [off], 0
    for a never-written slot, like {!global_get}. *)

val global_store : t -> int -> Bytes.t -> int -> unit
(** [global_store t slot buf off] sets the global to the value at [off]
    and marks it written, as {!global_set} does.
    @raise Invalid_argument on a slot the store did not issue. *)

val field_slot : t -> string -> int
(** The slot of a message field, registering the name if new.  Entries
    created before the name was registered grow on their first write. *)

type entry
(** One message's fields.  Only valid while the message is in the store:
    {!msg_end} and {!expire} unlink it. *)

val no_entry : entry
(** The "no such message" sentinel, compared with [==]; reading or
    writing a field through it raises [Invalid_argument]. *)

val msg_entry : t -> msg:int64 -> now:Eden_base.Time.t -> entry
(** The message's entry, created if absent, touched at [now]. *)

val entry_load : entry -> int -> default:int64 -> Bytes.t -> int -> unit
(** [msg_get] by slot, into [buf] at [off]: a never-written field reads
    [default] and stores it. *)

val entry_store : entry -> int -> Bytes.t -> int -> unit
(** [msg_set] by slot, from [buf] at [off]. *)
