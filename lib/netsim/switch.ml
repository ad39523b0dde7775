module Addr = Eden_base.Addr
module Packet = Eden_base.Packet
module Rng = Eden_base.Rng

type t = {
  id : int;
  mutable ports : Link.t array;
  mutable n_ports : int;
  dst_routes : (Addr.host, int array) Hashtbl.t;
  label_routes : (int, int) Hashtbl.t;
  mutable rx_packets : int;
  mutable no_route_drops : int;
}

let create ?seed:_ _ev ~id =
  {
    id;
    ports = [||];
    n_ports = 0;
    dst_routes = Hashtbl.create 16;
    label_routes = Hashtbl.create 16;
    rx_packets = 0;
    no_route_drops = 0;
  }

let id t = t.id

let add_port t link =
  (* Ports are added a handful of times at topology-build time; appending
     is simpler than amortized growth. *)
  t.ports <- Array.append t.ports [| link |];
  t.n_ports <- t.n_ports + 1;
  t.n_ports - 1

let port t i =
  if i < 0 || i >= t.n_ports then invalid_arg "Switch.port: no such port";
  t.ports.(i)

let set_dst_route t ~dst ~ports = Hashtbl.replace t.dst_routes dst (Array.of_list ports)
let set_label_route t ~label ~port = Hashtbl.replace t.label_routes label port

(* The output port for a packet, or -1 when there is none: one table
   probe per lookup, and no option. *)
let dst_port t (pkt : Packet.t) =
  match Hashtbl.find t.dst_routes pkt.Packet.flow.Addr.dst.Addr.host with
  | exception Not_found -> -1
  | ports -> (
    match Array.length ports with
    | 0 -> -1
    | 1 -> ports.(0)
    | n ->
      (* ECMP: deterministic per-flow hashing. *)
      ports.(Addr.hash_five_tuple pkt.Packet.flow mod n))

let route t (pkt : Packet.t) =
  match pkt.Packet.route_label with
  | None -> dst_port t pkt
  | Some label -> (
    match Hashtbl.find t.label_routes label with
    | port -> port
    | exception Not_found ->
      (* A switch with no entry for the packet's label pops it: the label
         has left its routing domain (the paper's VLAN tags are similarly
         scoped to the engineered paths). *)
      pkt.Packet.route_label <- None;
      dst_port t pkt)

let receive t pkt =
  t.rx_packets <- t.rx_packets + 1;
  let p = route t pkt in
  if p < 0 then t.no_route_drops <- t.no_route_drops + 1 else ignore (Link.send t.ports.(p) pkt)

let rx_packets t = t.rx_packets
let no_route_drops t = t.no_route_drops
