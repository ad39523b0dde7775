(* Seeded packet streams for the data-path workloads.  Everything is
   built before timing starts; the timed loops only reset the fields
   [Enclave.process] writes and replay the packets. *)

module Addr = Eden_base.Addr
module Packet = Eden_base.Packet
module Rng = Eden_base.Rng
module Descriptor = Eden_stage.Classifier.Descriptor
module Builtin = Eden_stage.Builtin

type app = Memcached | Storage | Plain

(* One application message: a stage classifies it once (no stage for
   [Plain] five-tuple traffic), then its packets follow. *)
type msg = {
  m_app : app;
  m_desc : Descriptor.t;
  m_msg_id : int64 option;
      (* A fixed id names a long-lived message; [None] lets the stage
         allocate a fresh one per classification. *)
  m_first : int;  (* index of the message's first packet *)
  m_count : int;
  m_close : bool;  (* the flow ends with this message *)
}

type t = { msgs : msg array; pkts : Packet.t array }

let packets t = Array.length t.pkts
let tenants = 8

(* Wire sizes 64..1500 B. *)
let packet rng ~id ~flow =
  let wire = 64 + Rng.int rng (1500 - 64 + 1) in
  Packet.make ~id ~flow ~kind:Packet.Data ~payload:(wire - Packet.default_header_bytes) ()

let build rng ~n_msgs ~next_msg =
  let msgs = ref [] and pkts = ref [] and n = ref 0 in
  for _ = 1 to n_msgs do
    let app, flow, desc, msg_id, count, close = next_msg () in
    let first = !n in
    let sizes = ref 0 in
    for _ = 1 to count do
      let p = packet rng ~id:(Int64.of_int !n) ~flow in
      sizes := !sizes + p.Packet.payload;
      pkts := p :: !pkts;
      incr n
    done;
    let m_desc = desc ~size:!sizes in
    msgs :=
      { m_app = app; m_desc; m_msg_id = msg_id; m_first = first; m_count = count; m_close = close }
      :: !msgs
  done;
  { msgs = Array.of_list (List.rev !msgs); pkts = Array.of_list (List.rev !pkts) }

let describe rng app ~key =
  match app with
  | Memcached ->
    let op = if Rng.bool rng then `Get else `Put in
    fun ~size -> Builtin.memcached_descriptor ~op ~key ~size
  | Storage ->
    let op = if Rng.bool rng then `Read else `Write in
    let tenant = Rng.int rng tenants in
    fun ~size -> Builtin.storage_descriptor ~op ~tenant ~size
  | Plain -> fun ~size:_ -> Descriptor.empty

let port_of = function Memcached -> 11211 | Storage -> 3260 | Plain -> 80

(* [hot_flows]: 64 long-lived flows, each carrying one long-lived
   message (a fixed message id) written in chunks of 1-6 packets.  24
   flows are memcached, 16 storage, 24 plain five-tuple traffic. *)
let hot ~seed ~packets:target =
  let rng = Rng.create seed in
  let flows =
    Array.init 64 (fun i ->
        let app = if i < 24 then Memcached else if i < 40 then Storage else Plain in
        let flow =
          Addr.five_tuple ~src:(Addr.endpoint 1 (20_000 + i))
            ~dst:(Addr.endpoint (2 + (i mod 8)) (port_of app))
            ~proto:Addr.Tcp
        in
        let msg_id = match app with Plain -> None | _ -> Some (Int64.of_int (1_000 + i)) in
        (app, flow, msg_id))
  in
  let avg_chunk = 3 in
  build rng ~n_msgs:(target / avg_chunk) ~next_msg:(fun () ->
      let app, flow, msg_id = flows.(Rng.int rng (Array.length flows)) in
      let key = Printf.sprintf "u%d:%d" (Rng.int rng 64) (Rng.int rng 8) in
      (app, flow, describe rng app ~key, msg_id, 1 + Rng.int rng 6, false))

(* [churn]: every message is a new five-tuple of 1-4 packets with its own
   message id; half the flows close after their message, half never do.
   Keys spread over 32 key-prefix classes, ports over the flow stage's
   port buckets (see [Policy]). *)
let churn ~seed ~messages =
  let rng = Rng.create seed in
  let seen = Addr.Flow_table.create 4096 in
  let rec fresh_flow () =
    let flow =
      Addr.five_tuple
        ~src:(Addr.endpoint (1 + Rng.int rng 65_536) (1024 + Rng.int rng 64_512))
        ~dst:(Addr.endpoint (2 + Rng.int rng 64) (1 + Rng.int rng 65_535))
        ~proto:Addr.Tcp
    in
    if Addr.Flow_table.mem seen flow then fresh_flow ()
    else begin
      Addr.Flow_table.add seen flow ();
      flow
    end
  in
  build rng ~n_msgs:messages ~next_msg:(fun () ->
      let r = Rng.int rng 4 in
      let app = if r < 2 then Memcached else if r = 2 then Storage else Plain in
      let key = Printf.sprintf "s%d:%d" (Rng.int rng 32) (Rng.int rng 1_000_000) in
      (app, fresh_flow (), describe rng app ~key, None, 1 + Rng.int rng 4, Rng.bool rng))
