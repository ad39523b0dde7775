(** Network packets.

    The unit the enclave and the simulated network operate on.  Fields that
    an action function may rewrite ([priority], [route_label], the drop
    disposition) are mutable; identity and addressing are not.  The
    [metadata] field carries the stage-assigned classes and message
    metadata down the host stack, mirroring the paper's extended send path
    (§4.2). *)

type kind = Syn | Syn_ack | Data | Ack | Fin

val kind_to_string : kind -> string

type t = {
  id : int64;  (** Unique per simulation; assigned by the sender. *)
  flow : Addr.five_tuple;
  kind : kind;
  seq : int;  (** First payload byte's sequence number. *)
  ack : int;  (** Cumulative acknowledgement (bytes). *)
  payload : int;  (** Payload bytes. *)
  header : int;  (** Header bytes on the wire. *)
  mutable priority : int;  (** 802.1q PCP, 0 (lowest) – 7 (highest). *)
  mutable route_label : int option;
      (** VLAN-style source-routing label consumed by switches. *)
  mutable ecn : bool;
  mutable metadata : Metadata.t;
}

val default_header_bytes : int
(** Ethernet + IPv4 + TCP framing: 54 bytes plus the 4-byte 802.1q tag. *)

val make :
  id:int64 ->
  flow:Addr.five_tuple ->
  kind:kind ->
  ?seq:int ->
  ?ack:int ->
  ?payload:int ->
  ?header:int ->
  ?priority:int ->
  ?metadata:Metadata.t ->
  unit ->
  t

val label : int -> int option
(** [label l] is [Some l], shared for every label in the VLAN id range
    0–4095 (built once, when the module initialises), so writing such a
    label to [route_label] allocates nothing; outside that range it is a
    fresh [Some l]. *)

val wire_size : t -> int
(** Bytes occupying the link: [payload + header]. *)

val is_data : t -> bool
val end_seq : t -> int
(** [seq + payload]. *)

val pp : Format.formatter -> t -> unit
