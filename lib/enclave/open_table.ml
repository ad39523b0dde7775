open Eden_base

type flow = { f_src : int; f_dst : int; f_id : int; mutable f_classes : Class_name.t list }

(* Both tables keep their capacity a power of two, at least twice their
   entries, and probe linearly from [hash land mask]. *)
let initial_capacity = 16

module Flows = struct
  type t = {
    mutable slots : flow array;
    mutable count : int;
    wide : flow Addr.Flow_table.t;  (* tuples [packs] refuses *)
  }

  (* Packed fields are never negative, so no key matches it. *)
  let vacant = { f_src = -1; f_dst = -1; f_id = -1; f_classes = [] }

  let create () =
    { slots = Array.make initial_capacity vacant; count = 0; wide = Addr.Flow_table.create 1 }

  let reset t =
    t.slots <- Array.make initial_capacity vacant;
    t.count <- 0;
    Addr.Flow_table.reset t.wide

  (* A tuple whose hosts are below 2^40 and whose ports fit 16 bits packs
     into two ints without loss: source host and port, and destination
     host, port and protocol. *)
  let[@inline] packs (k : Addr.five_tuple) =
    (k.src.Addr.host lor k.dst.Addr.host) lsr 40 = 0
    && (k.src.Addr.port lor k.dst.Addr.port) lsr 16 = 0

  let[@inline] pack_src (k : Addr.five_tuple) = (k.src.Addr.host lsl 16) lor k.src.Addr.port

  let[@inline] pack_dst (k : Addr.five_tuple) =
    (k.dst.Addr.host lsl 17)
    lor (k.dst.Addr.port lsl 1)
    lor (match k.proto with Addr.Tcp -> 0 | Addr.Udp -> 1)

  (* Each packed int times an odd constant, the high half folded down so
     the low bits the mask keeps depend on every field.  Sequential
     ports from one host and one port on many hosts both spread. *)
  let[@inline] mix src dst =
    let h = (src * 0x9E3779B97F4A7C1) lxor (dst * 0x2545F4914F6CDD1D) in
    h lxor (h lsr 29)

  let[@inline] home f mask = mix f.f_src f.f_dst land mask

  (* The slot holding [src, dst], or the free slot it would take. *)
  let rec probe slots mask src dst i =
    let f = Array.unsafe_get slots i in
    if (f.f_src = src && f.f_dst = dst) || f == vacant then i
    else probe slots mask src dst ((i + 1) land mask)

  let slot t src dst =
    let mask = Array.length t.slots - 1 in
    probe t.slots mask src dst (mix src dst land mask)

  let find t k =
    if packs k then Array.unsafe_get t.slots (slot t (pack_src k) (pack_dst k))
    else match Addr.Flow_table.find_opt t.wide k with Some f -> f | None -> vacant

  let rec free slots mask i =
    if Array.unsafe_get slots i == vacant then i else free slots mask ((i + 1) land mask)

  let grow t =
    let slots = Array.make (2 * Array.length t.slots) vacant in
    let mask = Array.length slots - 1 in
    Array.iter
      (fun f -> if f != vacant then slots.(free slots mask (home f mask)) <- f)
      t.slots;
    t.slots <- slots

  let add t k ~id ~classes =
    if packs k then begin
      let src = pack_src k and dst = pack_dst k in
      let i = slot t src dst in
      if t.slots.(i) != vacant then invalid_arg "Open_table.Flows.add: flow present";
      let f = { f_src = src; f_dst = dst; f_id = id; f_classes = classes } in
      t.slots.(i) <- f;
      t.count <- t.count + 1;
      if 2 * t.count > Array.length t.slots then grow t;
      f
    end
    else begin
      if Addr.Flow_table.mem t.wide k then invalid_arg "Open_table.Flows.add: flow present";
      let f = { vacant with f_id = id; f_classes = classes } in
      Addr.Flow_table.replace t.wide k f;
      f
    end

  (* Backward shift: walk the run after the hole and move back into it
     every entry whose home slot does not lie cyclically after the hole,
     so every entry stays reachable from its home without tombstones. *)
  let rec shift slots mask hole j =
    let j = (j + 1) land mask in
    let f = Array.unsafe_get slots j in
    if f == vacant then Array.unsafe_set slots hole vacant
    else if (j - home f mask) land mask >= (j - hole) land mask then begin
      Array.unsafe_set slots hole f;
      shift slots mask j j
    end
    else shift slots mask hole j

  let remove t k =
    if packs k then begin
      let i = slot t (pack_src k) (pack_dst k) in
      let f = Array.unsafe_get t.slots i in
      if f != vacant then begin
        shift t.slots (Array.length t.slots - 1) i i;
        t.count <- t.count - 1
      end;
      f
    end
    else
      match Addr.Flow_table.find_opt t.wide k with
      | Some f ->
        Addr.Flow_table.remove t.wide k;
        f
      | None -> vacant

  let iter f t =
    Array.iter (fun x -> if x != vacant then f x) t.slots;
    Addr.Flow_table.iter (fun _ x -> f x) t.wide
end

module Class_memo = struct
  type t = { mutable keys : Class_name.t array; mutable pos : int array; mutable count : int }

  (* Physically distinct from every class a packet carries; a probe
     tests for it before comparing names. *)
  let vacant = Class_name.v ~stage:"enclave" ~ruleset:"memo" ~name:"VACANT"

  let create () =
    {
      keys = Array.make initial_capacity vacant;
      pos = Array.make initial_capacity 0;
      count = 0;
    }

  let length t = t.count

  let clear t =
    if t.count > 0 then begin
      Array.fill t.keys 0 (Array.length t.keys) vacant;
      t.count <- 0
    end

  (* The slot holding [c], or the free slot it would take. *)
  let rec probe keys mask (c : Class_name.t) i =
    let k = Array.unsafe_get keys i in
    if k == c || k == vacant || (k.Class_name.hash = c.Class_name.hash && Class_name.equal k c)
    then i
    else probe keys mask c ((i + 1) land mask)

  let slot t c =
    let mask = Array.length t.keys - 1 in
    probe t.keys mask c (c.Class_name.hash land mask)

  let find t c =
    let i = slot t c in
    if Array.unsafe_get t.keys i == vacant then -1 else Array.unsafe_get t.pos i

  let rec free keys mask i =
    if Array.unsafe_get keys i == vacant then i else free keys mask ((i + 1) land mask)

  let grow t =
    let n = 2 * Array.length t.keys in
    let keys = Array.make n vacant and pos = Array.make n 0 in
    let mask = n - 1 in
    Array.iteri
      (fun i c ->
        if c != vacant then begin
          let j = free keys mask (c.Class_name.hash land mask) in
          keys.(j) <- c;
          pos.(j) <- t.pos.(i)
        end)
      t.keys;
    t.keys <- keys;
    t.pos <- pos

  let add t c p =
    let i = slot t c in
    if t.keys.(i) != vacant then invalid_arg "Open_table.Class_memo.add: class present";
    t.keys.(i) <- c;
    t.pos.(i) <- p;
    t.count <- t.count + 1;
    if 2 * t.count > Array.length t.keys then grow t
end
