module Time = Eden_base.Time
module Addr = Eden_base.Addr
module Packet = Eden_base.Packet

type kind = Enqueued | Delivered | Dropped

let kind_to_string = function
  | Enqueued -> "enq"
  | Delivered -> "rx"
  | Dropped -> "drop"

type entry = {
  at : Time.t;
  link : string;
  kind : kind;
  packet_id : int64;
  flow : Addr.five_tuple;
  packet_kind : Packet.kind;
  size : int;
  priority : int;
}

module Ring = Eden_telemetry.Ring

type t = {
  ring : entry Ring.t;
  mutable total : int;  (* ever recorded, evicted ones included *)
}

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { ring = Ring.create capacity; total = 0 }

let record t e =
  Ring.push t.ring e;
  t.total <- t.total + 1

let entries t = List.rev (Ring.to_list t.ring)
let count t = t.total

let clear t =
  Ring.clear t.ring;
  t.total <- 0

let filter ?link ?kind ?flow t =
  List.filter
    (fun e ->
      (match link with Some l -> String.equal l e.link | None -> true)
      && (match kind with Some k -> k = e.kind | None -> true)
      && match flow with Some f -> Addr.equal_five_tuple f e.flow | None -> true)
    (entries t)

let pp_entry fmt e =
  Format.fprintf fmt "%a %-12s %-4s #%Ld %a %s %dB prio%d" Time.pp e.at e.link
    (kind_to_string e.kind) e.packet_id Addr.pp_five_tuple e.flow
    (Packet.kind_to_string e.packet_kind)
    e.size e.priority

let dump ?limit fmt t =
  let es = entries t in
  let es = match limit with Some n -> List.filteri (fun i _ -> i < n) es | None -> es in
  List.iter (fun e -> Format.fprintf fmt "%a@." pp_entry e) es
