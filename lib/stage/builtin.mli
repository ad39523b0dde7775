(** Built-in stages (paper Table 2).

    Three application stages — memcached, an HTTP library, and a storage
    service — plus the enclave's own five-tuple stage.  Each comes with a
    descriptor builder translating application events into classifier
    descriptors. *)

module Field : sig
  val msg_type : string
  val key : string
  val url : string
  val msg_size : string
  val key_hash : string
  val operation : string
  val tenant : string
  val src_host : string
  val src_port : string
  val dst_host : string
  val dst_port : string
  val proto : string
end

val memcached : unit -> Stage.t
(** Classifies on [msg_type] (GET/PUT) and [key]; generates
    [{msg_id, msg_type, key, msg_size, key_hash}] — the integer key hash
    feeds replica-selection functions (mcrouter, paper Table 1). *)

val memcached_descriptor :
  op:[ `Get | `Put ] -> key:string -> size:int -> Classifier.Descriptor.t

val http : unit -> Stage.t
(** Classifies on [msg_type] (request/response) and [url]; generates
    [{msg_id, msg_type, url, msg_size}]. *)

val http_descriptor :
  msg_type:[ `Request | `Response ] -> url:string -> size:int -> Classifier.Descriptor.t

val storage : unit -> Stage.t
(** Classifies on IO [operation] (READ/WRITE) and [tenant]; generates
    [{msg_id, operation, msg_size, tenant}] — what Pulsar's rate control
    needs (paper Fig. 3). *)

val storage_descriptor :
  op:[ `Read | `Write ] -> tenant:int -> size:int -> Classifier.Descriptor.t

val flow : unit -> Stage.t
(** The Eden enclave's own stage: classifies packets on the IP five-tuple
    (paper Table 2, last row); each transport connection is a message. *)

val flow_descriptor : Eden_base.Addr.five_tuple -> Classifier.Descriptor.t
(** The five-tuple as a descriptor, for applications, tests and
    benchmarks that classify through {!Stage.classify}. *)

val flow_row : unit -> Classifier.row
(** A row for {!flow}'s classifier fields, to fill with {!fill_flow_row}
    and reuse. *)

val fill_flow_row : Classifier.row -> Eden_base.Addr.five_tuple -> unit
(** Stores the five-tuple's values for {!flow}'s classifier fields, in
    their order, straight from its ints, with no descriptor built and
    nothing allocated: the enclave classifies each new flow with
    [Stage.classes_of_row stage row] after [fill_flow_row row ft], which
    equals [Stage.classes stage (flow_descriptor ft)].
    @raise Invalid_argument if [row] is not {!flow}'s length. *)

val install_default_rule : Stage.t -> ruleset:string -> unit
(** Fig. 6's [r2]: a catch-all rule placing every message in class
    [DEFAULT] with all of the stage's metadata attached. *)
