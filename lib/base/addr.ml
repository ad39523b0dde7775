type host = int
type port = int
type proto = Tcp | Udp

let proto_to_string = function Tcp -> "tcp" | Udp -> "udp"

let proto_of_string = function
  | "tcp" -> Some Tcp
  | "udp" -> Some Udp
  | _ -> None

type endpoint = { host : host; port : port }

let endpoint host port = { host; port }
let pp_endpoint fmt e = Format.fprintf fmt "h%d:%d" e.host e.port

type five_tuple = { src : endpoint; dst : endpoint; proto : proto }

let five_tuple ~src ~dst ~proto = { src; dst; proto }
let reverse t = { t with src = t.dst; dst = t.src }

let proto_code = function Tcp -> 0 | Udp -> 1

(* Integer comparisons only, in the order structural comparison gives:
   source host and port, destination host and port, then protocol. *)
let compare_five_tuple a b =
  let c = Int.compare a.src.host b.src.host in
  if c <> 0 then c
  else
    let c = Int.compare a.src.port b.src.port in
    if c <> 0 then c
    else
      let c = Int.compare a.dst.host b.dst.host in
      if c <> 0 then c
      else
        let c = Int.compare a.dst.port b.dst.port in
        if c <> 0 then c else Int.compare (proto_code a.proto) (proto_code b.proto)

let equal_five_tuple a b =
  a == b
  || Int.equal a.src.port b.src.port
     && Int.equal a.dst.port b.dst.port
     && Int.equal a.src.host b.src.host
     && Int.equal a.dst.host b.dst.host
     && proto_code a.proto = proto_code b.proto

(* FNV-1a over the tuple fields; deterministic across runs, unlike
   [Hashtbl.hash] on boxed values it is explicit about what is mixed. *)
let hash_five_tuple t =
  let fnv h x =
    let h = h lxor (x land 0xffff) in
    let h = h * 0x01000193 land max_int in
    let h = h lxor (x lsr 16) in
    h * 0x01000193 land max_int
  in
  let h = 0x811c9dc5 in
  let h = fnv h t.src.host in
  let h = fnv h t.src.port in
  let h = fnv h t.dst.host in
  let h = fnv h t.dst.port in
  fnv h (match t.proto with Tcp -> 6 | Udp -> 17)

let pp_five_tuple fmt t =
  Format.fprintf fmt "%a->%a/%s" pp_endpoint t.src pp_endpoint t.dst
    (proto_to_string t.proto)

module Flow_key = struct
  type t = five_tuple

  let compare = compare_five_tuple
end

module Flow_map = Map.Make (Flow_key)

module Flow_table = Hashtbl.Make (struct
  type t = five_tuple

  let equal = equal_five_tuple
  let hash = hash_five_tuple
end)
