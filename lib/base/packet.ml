type kind = Syn | Syn_ack | Data | Ack | Fin

let kind_to_string = function
  | Syn -> "SYN"
  | Syn_ack -> "SYN-ACK"
  | Data -> "DATA"
  | Ack -> "ACK"
  | Fin -> "FIN"

type t = {
  id : int64;
  flow : Addr.five_tuple;
  kind : kind;
  seq : int;
  ack : int;
  payload : int;
  header : int;
  mutable priority : int;
  mutable route_label : int option;
  mutable ecn : bool;
  mutable metadata : Metadata.t;
}

let default_header_bytes = 58

let make ~id ~flow ~kind ?(seq = 0) ?(ack = 0) ?(payload = 0)
    ?(header = default_header_bytes) ?(priority = 0) ?(metadata = Metadata.empty) () =
  if payload < 0 then invalid_arg "Packet.make: negative payload";
  if priority < 0 || priority > 7 then invalid_arg "Packet.make: priority out of range";
  {
    id;
    flow;
    kind;
    seq;
    ack;
    payload;
    header;
    priority;
    route_label = None;
    ecn = false;
    metadata;
  }

(* [Some l] for every VLAN id, built once: setting a route label in that
   range allocates nothing. *)
let shared_labels = Array.init 4096 (fun l -> Some l)
let label l = if l >= 0 && l < Array.length shared_labels then shared_labels.(l) else Some l

let wire_size p = p.payload + p.header
let is_data p = match p.kind with Data -> true | Syn | Syn_ack | Ack | Fin -> false
let end_seq p = p.seq + p.payload

let pp fmt p =
  Format.fprintf fmt "@[<h>#%Ld %a %s seq=%d ack=%d len=%d prio=%d%s@]" p.id
    Addr.pp_five_tuple p.flow (kind_to_string p.kind) p.seq p.ack p.payload p.priority
    (match p.route_label with Some l -> Printf.sprintf " label=%d" l | None -> "")
