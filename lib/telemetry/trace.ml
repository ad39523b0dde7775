module Time = Eden_base.Time
module Rng = Eden_base.Rng

type verdict =
  | Forwarded
  | Queued of int
  | Dropped

type event = {
  ev_seq : int;
  ev_pkt_id : int64;
  ev_start : Time.t;
  ev_classify_ns : float;
  ev_match_ns : float;
  ev_action : string;
  ev_action_ns : float;
  ev_total_ns : float;
  ev_verdict : verdict;
}

type t = {
  cap : int;
  every : int;
  phase : int;  (* seed-derived offset into the 1-in-[every] cycle *)
  mutable tick : int;  (* packets seen since creation / clear *)
  mutable cur : int;  (* open slot, -1 when none *)
  mutable next : int;  (* next slot to fill *)
  mutable filled : int;  (* live slots, <= cap *)
  mutable total : int;  (* events recorded since creation / clear *)
  seq : int array;
  pkt_id : int64 array;
  start_ns : int64 array;
  classify_ns : float array;
  match_ns : float array;
  action_ns : float array;
  total_ns : float array;
  action : string array;
  verd : int array;  (* 0 = forwarded, 1 = queued, 2 = dropped *)
  queue : int array;
}

let create ?(seed = 0L) ?(every = 64) ~capacity () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  if every <= 0 then invalid_arg "Trace.create: every must be positive";
  let phase = if every = 1 then 0 else Rng.int (Rng.create seed) every in
  {
    cap = capacity;
    every;
    phase;
    tick = 0;
    cur = -1;
    next = 0;
    filled = 0;
    total = 0;
    seq = Array.make capacity 0;
    pkt_id = Array.make capacity 0L;
    start_ns = Array.make capacity 0L;
    classify_ns = Array.make capacity 0.0;
    match_ns = Array.make capacity 0.0;
    action_ns = Array.make capacity 0.0;
    total_ns = Array.make capacity 0.0;
    action = Array.make capacity "";
    verd = Array.make capacity 0;
    queue = Array.make capacity (-1);
  }

let every t = t.every
let capacity t = t.cap

let begin_packet t ~now ~pkt_id =
  let tick = t.tick in
  t.tick <- tick + 1;
  if (tick + t.phase) mod t.every <> 0 then false
  else begin
    let i = t.next in
    t.cur <- i;
    t.next <- (i + 1) mod t.cap;
    if t.filled < t.cap then t.filled <- t.filled + 1;
    t.total <- t.total + 1;
    t.seq.(i) <- tick;
    t.pkt_id.(i) <- pkt_id;
    t.start_ns.(i) <- Time.to_ns now;
    t.classify_ns.(i) <- 0.0;
    t.match_ns.(i) <- 0.0;
    t.action_ns.(i) <- 0.0;
    t.total_ns.(i) <- 0.0;
    t.action.(i) <- "";
    t.verd.(i) <- 0;
    t.queue.(i) <- -1;
    true
  end

let set_classify t ns = if t.cur >= 0 then t.classify_ns.(t.cur) <- ns
let set_match t ns = if t.cur >= 0 then t.match_ns.(t.cur) <- ns

(* A goto chain invokes several actions for one packet: the stage sums
   them and names the chain in walk order. *)
let set_action t name ns =
  if t.cur >= 0 then begin
    let i = t.cur in
    t.action.(i) <-
      (if String.equal t.action.(i) "" then name else t.action.(i) ^ ">" ^ name);
    t.action_ns.(i) <- t.action_ns.(i) +. ns
  end

let current_action_ns t = if t.cur >= 0 then t.action_ns.(t.cur) else 0.0

let finish t ~verdict ~total_ns =
  if t.cur >= 0 then begin
    let i = t.cur in
    t.total_ns.(i) <- total_ns;
    (match verdict with
    | Forwarded -> t.verd.(i) <- 0
    | Queued q ->
        t.verd.(i) <- 1;
        t.queue.(i) <- q
    | Dropped -> t.verd.(i) <- 2);
    t.cur <- -1
  end

let event_at t i =
  {
    ev_seq = t.seq.(i);
    ev_pkt_id = t.pkt_id.(i);
    ev_start = t.start_ns.(i);
    ev_classify_ns = t.classify_ns.(i);
    ev_match_ns = t.match_ns.(i);
    ev_action = t.action.(i);
    ev_action_ns = t.action_ns.(i);
    ev_total_ns = t.total_ns.(i);
    ev_verdict =
      (match t.verd.(i) with
      | 0 -> Forwarded
      | 1 -> Queued t.queue.(i)
      | _ -> Dropped);
  }

let events t =
  let out = ref [] in
  for k = t.filled downto 1 do
    (* k-th newest filled slot is at next - k (mod cap). *)
    let i = ((t.next - k) mod t.cap + t.cap) mod t.cap in
    if i <> t.cur then out := event_at t i :: !out
  done;
  !out

let recorded t = t.total

let clear t =
  t.tick <- 0;
  t.cur <- -1;
  t.next <- 0;
  t.filled <- 0;
  t.total <- 0

let pp_verdict ppf = function
  | Forwarded -> Format.fprintf ppf "forward"
  | Queued q -> Format.fprintf ppf "queue=%d" q
  | Dropped -> Format.fprintf ppf "drop"

let pp_dump ppf t =
  let evs = events t in
  Format.fprintf ppf "flight recorder: %d/%d slots, 1-in-%d sampling, %d recorded@."
    t.filled t.cap t.every t.total;
  List.iter
    (fun e ->
      Format.fprintf ppf
        "  #%-6d pkt=%-8Ld t=%a  classify=%.0fns match=%.0fns action=%s/%.0fns \
         total=%.0fns -> %a@."
        e.ev_seq e.ev_pkt_id Time.pp e.ev_start e.ev_classify_ns e.ev_match_ns
        (if e.ev_action = "" then "-" else e.ev_action)
        e.ev_action_ns e.ev_total_ns pp_verdict e.ev_verdict)
    evs
