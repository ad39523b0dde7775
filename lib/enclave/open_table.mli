(** The enclave's two per-packet tables, open-addressed: the flow table
    (five-tuple to flow entry) and a match-action table's class memo
    (class to the position of its first matching rule).

    Both probe linearly from a fixed, unseeded hash, so every run
    replays exactly.  A lookup calls no functor, closure or exception,
    and allocates nothing (but for the rare tuple below that does not
    pack).  Each table doubles when more than half full. *)

type flow = {
  f_src : int;  (** Source host and port, packed. *)
  f_dst : int;  (** Destination host, port and protocol, packed. *)
  f_id : int;  (** The enclave-assigned message id. *)
  mutable f_classes : Eden_base.Class_name.t list;
      (** Flow-stage classes, memoised in {!Eden_base.Metadata.merge_order}. *)
}
(** A flow entry carries its five-tuple as two ints, so the table is one
    array of five-word entries and a probe reads one entry and no key.
    A tuple with a negative host or port, a host of 2^40 or more or a
    port above 65535 does not pack; the table keeps its entry in a side
    hash table. *)

module Flows : sig
  type t

  val vacant : flow
  (** What {!find} and {!remove} return for an absent flow; never a live
      flow. *)

  val create : unit -> t
  val reset : t -> unit

  val find : t -> Eden_base.Addr.five_tuple -> flow

  val add :
    t ->
    Eden_base.Addr.five_tuple ->
    id:int ->
    classes:Eden_base.Class_name.t list ->
    flow
  (** The new entry.  @raise Invalid_argument if the flow is present. *)

  val remove : t -> Eden_base.Addr.five_tuple -> flow
  (** The removed entry, or {!vacant}.  Entries after it shift back, so
      the table keeps no tombstones. *)

  val iter : (flow -> unit) -> t -> unit
end

module Class_memo : sig
  type t

  val create : unit -> t
  val length : t -> int

  val clear : t -> unit
  (** Keeps the capacity. *)

  val find : t -> Eden_base.Class_name.t -> int
  (** The class's position, or [-1] when it is not memoised. *)

  val add : t -> Eden_base.Class_name.t -> int -> unit
  (** @raise Invalid_argument if the class is present. *)
end
