module Time = Eden_base.Time
module Packet = Eden_base.Packet
module Priority = Eden_enclave.Queueing.Priority

type stats = {
  mutable tx_packets : int;
  mutable tx_bytes : int;
  mutable dropped_packets : int;
}

type t = {
  ev : Event.t;
  rate_bps : float;
  delay : int;  (* ticks *)
  name : string;
  ecn_threshold_bytes : int option;
  buffer : Packet.t Priority.t;
  in_flight : Packet.t Queue.t;  (* serialized, awaiting delivery, oldest first *)
  deliver_next : unit -> unit;  (* the delivery event: [in_flight]'s head *)
  tx_done : unit -> unit;  (* the serialization-complete event *)
  mutable deliver : (Packet.t -> unit) option;
  mutable busy : bool;
  mutable tracer : (Trace.entry -> unit) option;
  stats : stats;
}

let trace t kind (pkt : Packet.t) =
  match t.tracer with
  | None -> ()
  | Some f ->
    f
      {
        Trace.at = Event.now t.ev;
        link = t.name;
        kind;
        packet_id = pkt.Packet.id;
        flow = pkt.Packet.flow;
        packet_kind = pkt.Packet.kind;
        size = Packet.wire_size pkt;
        priority = pkt.Packet.priority;
      }

(* Serialization time in ticks, rounded as [Time.of_float_ns] rounds. *)
let tx_ticks t bytes =
  int_of_float (Float.round (float_of_int bytes *. 8.0 /. t.rate_bps *. 1e9))

(* Every delivery is scheduled a constant delay after its packet's
   serialization ends, and serializations end in the order they start, so
   deliveries fire in schedule order: the event firing now is always
   [in_flight]'s head, and one closure per link serves them all. *)
let deliver_head t =
  let pkt = Queue.pop t.in_flight in
  trace t Trace.Delivered pkt;
  match t.deliver with
  | Some deliver -> deliver pkt
  | None -> ()

let start_tx t =
  if Priority.is_empty t.buffer then t.busy <- false
  else begin
    let pkt = Priority.take t.buffer in
    t.busy <- true;
    let bytes = Packet.wire_size pkt in
    let tx = tx_ticks t bytes in
    t.stats.tx_packets <- t.stats.tx_packets + 1;
    t.stats.tx_bytes <- t.stats.tx_bytes + bytes;
    (* Delivery happens a propagation delay after serialization ends. *)
    Queue.add pkt t.in_flight;
    Event.schedule_in_ticks t.ev (tx + t.delay) t.deliver_next;
    Event.schedule_in_ticks t.ev tx t.tx_done
  end

let create ?(capacity_bytes = 512 * 1024) ?(name = "link") ?ecn_threshold_bytes ev
    ~rate_bps ~delay () =
  if rate_bps <= 0.0 then invalid_arg "Link.create: rate must be positive";
  let rec t =
    {
      ev;
      rate_bps;
      delay = Event.ticks delay;
      name;
      ecn_threshold_bytes;
      buffer = Priority.create ~capacity_bytes ();
      in_flight = Queue.create ();
      deliver_next = (fun () -> deliver_head t);
      tx_done = (fun () -> start_tx t);
      deliver = None;
      busy = false;
      tracer = None;
      stats = { tx_packets = 0; tx_bytes = 0; dropped_packets = 0 };
    }
  in
  t

let attach t deliver = t.deliver <- Some deliver
let set_tracer t tracer = t.tracer <- Some tracer

let send t pkt =
  (* DCTCP-style marking: set the congestion bit when the instantaneous
     queue exceeds the threshold K. *)
  (match t.ecn_threshold_bytes with
  | Some k when Priority.bytes t.buffer > k -> pkt.Packet.ecn <- true
  | Some _ | None -> ());
  let ok = Priority.push t.buffer ~prio:pkt.Packet.priority ~size:(Packet.wire_size pkt) pkt in
  if not ok then begin
    t.stats.dropped_packets <- t.stats.dropped_packets + 1;
    trace t Trace.Dropped pkt
  end
  else begin
    trace t Trace.Enqueued pkt;
    if not t.busy then start_tx t
  end;
  ok

let rate_bps t = t.rate_bps
let stats t = t.stats
let queue_bytes t = Priority.bytes t.buffer
let name t = t.name
