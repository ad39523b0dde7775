module Addr = Eden_base.Addr
module Packet = Eden_base.Packet
module Time = Eden_base.Time
module Rng = Eden_base.Rng
module Enclave = Eden_enclave.Enclave
module Token_bucket = Eden_enclave.Queueing.Token_bucket
module Tel = Eden_telemetry

type rate_queue = { bucket : Token_bucket.t }

type t = {
  id : Addr.host;
  ev : Event.t;
  rng : Rng.t;
  mutable tx_jitter : int;  (* ticks *)
  mutable nic_clock : int;  (* last scheduled NIC-entry tick: keeps egress FIFO *)
  nic_queue : Packet.t Queue.t;  (* scheduled NIC entries, oldest first *)
  nic_entry : unit -> unit;  (* the NIC-entry event: [nic_queue]'s head *)
  alloc_packet_id : unit -> int64;
  mutable uplink : Link.t option;
  mutable enclave : Enclave.t option;
  mutable ingress_enclave : Enclave.t option;
  mutable tcp_config : Tcp.config;
  senders : Tcp.Sender.t Addr.Flow_table.t;  (* keyed by the tuple their ACKs carry *)
  receivers : Tcp.Receiver.t Addr.Flow_table.t;
  rate_queues : (int, rate_queue) Hashtbl.t;
  mutable next_port : int;
  tel : Tel.Registry.t;
  hm_tx : Tel.Counter.t;
  hm_rx : Tel.Counter.t;
  hm_enclave_drops : Tel.Counter.t;
}

let nic_send t pkt =
  match t.uplink with
  | Some link -> ignore (Link.send link pkt)
  | None -> ()

let create ?(seed = 0x05EAL) ev ~id ~alloc_packet_id =
  let tel = Tel.Registry.create () in
  let rec t =
    {
      id;
      ev;
      rng = Rng.create (Int64.add seed (Int64.of_int (id * 7919)));
      (* Default 200 ns of uniform transmission jitter: real hosts have
         scheduling noise, and without it a perfectly deterministic
         simulator exhibits TCP phase effects (Floyd & Jacobson 1992) —
         drop-tail buffers systematically lock out whichever sender has a
         few nanoseconds more fixed latency. *)
      tx_jitter = 200;
      nic_clock = 0;
      nic_queue = Queue.create ();
      nic_entry = (fun () -> nic_send t (Queue.pop t.nic_queue));
      alloc_packet_id;
      uplink = None;
      enclave = None;
      ingress_enclave = None;
      tcp_config = Tcp.default_config;
      senders = Addr.Flow_table.create 32;
      receivers = Addr.Flow_table.create 32;
      rate_queues = Hashtbl.create 4;
      next_port = 10_000;
      tel;
      hm_tx =
        Tel.Registry.counter tel ~help:"Packets submitted for transmit"
          "eden_host_tx_packets_total";
      hm_rx =
        Tel.Registry.counter tel ~help:"Packets arriving from the network"
          "eden_host_rx_packets_total";
      hm_enclave_drops =
        Tel.Registry.counter tel ~help:"Packets dropped by egress or ingress enclave"
          "eden_host_enclave_drops_total";
    }
  in
  t

let id t = t.id
let set_uplink t link = t.uplink <- Some link
let uplink t = t.uplink
let set_enclave t e = t.enclave <- Some e
let enclave t = t.enclave
let set_ingress_enclave t e = t.ingress_enclave <- Some e
let ingress_enclave t = t.ingress_enclave
let set_tcp_config t c = t.tcp_config <- c
let tcp_config t = t.tcp_config

let define_rate_queue t ~queue ~rate_bps ?burst_bytes () =
  let burst_bytes = Option.value ~default:(64 * 1024) burst_bytes in
  Hashtbl.replace t.rate_queues queue { bucket = Token_bucket.create ~rate_bps ~burst_bytes }

let set_tx_jitter t j = t.tx_jitter <- Int64.to_int (Time.to_ns j)

(* Ticks of transmit jitter, uniform in [0, tx_jitter]. *)
let jitter t = if t.tx_jitter <= 0 then 0 else Rng.int t.rng (t.tx_jitter + 1)

(* A modelled CPU cost in ticks, rounded as [Time.of_float_ns] rounds. *)
let cost_ticks ns = int_of_float (Float.round ns)

(* Hand the packet to the NIC after [delay], without ever reordering this
   host's own submissions: entry times are forced monotonic, so the
   scheduled entries fire in schedule order and one closure per host,
   popping [nic_queue], serves them all. *)
let nic_send_after t delay pkt =
  let now = Event.now_ticks t.ev in
  let at = Int.max (now + delay) t.nic_clock in
  t.nic_clock <- at;
  if at > now then begin
    Queue.add pkt t.nic_queue;
    Event.schedule_at_ticks t.ev at t.nic_entry
  end
  else nic_send t pkt

let transmit t pkt =
  Tel.Counter.inc t.hm_tx;
  match t.enclave with
  | None -> nic_send_after t (jitter t) pkt
  | Some enclave -> (
    let decision = Enclave.process enclave ~now:(Event.now t.ev) pkt in
    (* The enclave's per-packet CPU cost becomes data-path latency, so
       interpreted and native action functions differ on the wire the way
       they do on the paper's testbed.  Jitter applies to every egress
       packet, enclave or not. *)
    let cpu = cost_ticks (Enclave.last_process_cost_ns enclave) + jitter t in
    match decision with
    | Enclave.Dropped _ ->
      Tel.Counter.inc t.hm_enclave_drops
    | Enclave.Forward { queue = None; charge = _ } -> nic_send_after t cpu pkt
    | Enclave.Forward { queue = Some q; charge } -> (
      match Hashtbl.find_opt t.rate_queues q with
      | None ->
        (* Steering to an undefined queue falls back to the NIC. *)
        nic_send_after t cpu pkt
      | Some rq ->
        let departure =
          Token_bucket.consume rq.bucket ~now:(Event.now t.ev) ~cost_bytes:charge
        in
        (* Rate-limited queues have their own pacing; keep the CPU cost
           but let the token bucket set the departure time. *)
        Event.schedule_at_ticks t.ev (Event.ticks departure + cpu) (fun () -> nic_send t pkt)))

let deliver t (pkt : Packet.t) =
  match pkt.Packet.kind with
  | Packet.Data -> (
    match Addr.Flow_table.find t.receivers pkt.Packet.flow with
    | rx -> Tcp.Receiver.handle_data rx pkt
    | exception Not_found -> ())
  | Packet.Ack -> (
    match Addr.Flow_table.find t.senders pkt.Packet.flow with
    | tx -> Tcp.Sender.handle_ack tx pkt
    | exception Not_found -> ())
  | Packet.Syn | Packet.Syn_ack | Packet.Fin -> ()

(* The receive path: an ingress enclave (when present) filters and
   classifies arriving packets before the transport sees them — the
   paper's enclave observes packets being sent *and* received. *)
let receive t (pkt : Packet.t) =
  Tel.Counter.inc t.hm_rx;
  match t.ingress_enclave with
  | None -> deliver t pkt
  | Some enclave -> (
    match Enclave.process enclave ~now:(Event.now t.ev) pkt with
    | Enclave.Dropped _ ->
      Tel.Counter.inc t.hm_enclave_drops
    | Enclave.Forward _ ->
      let cpu = cost_ticks (Enclave.last_process_cost_ns enclave) in
      if cpu > 0 then Event.schedule_in_ticks t.ev cpu (fun () -> deliver t pkt)
      else deliver t pkt)

(* A sender is found by its ACKs' tuple, the reverse of its own, so an
   arriving ACK is looked up as it is. *)
let register_sender t sender =
  Addr.Flow_table.replace t.senders (Addr.reverse (Tcp.Sender.flow sender)) sender

let register_receiver t ~flow receiver = Addr.Flow_table.replace t.receivers flow receiver

let unregister_flow t flow =
  Addr.Flow_table.remove t.senders (Addr.reverse flow);
  Addr.Flow_table.remove t.receivers flow;
  match t.enclave with
  | Some e -> Enclave.note_flow_closed e flow
  | None -> ()

let fresh_port t =
  let p = t.next_port in
  t.next_port <- p + 1;
  p

let packets_dropped_by_enclave t = Tel.Counter.get t.hm_enclave_drops
let telemetry t = t.tel

let scrape t =
  let encl = function Some e -> [ Enclave.scrape e ] | None -> [] in
  Tel.Registry.merge
    ((Tel.Registry.scrape t.tel :: encl t.enclave) @ encl t.ingress_enclave)
