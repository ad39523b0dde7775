module Time = Eden_base.Time
module Packet = Eden_base.Packet
module Addr = Eden_base.Addr
module Metadata = Eden_base.Metadata

type config = {
  mss : int;
  init_cwnd_segments : int;
  min_rto : Time.t;
  max_rto : Time.t;
  max_cwnd_bytes : int option;
  ack_priority : int;
  dupack_threshold : int;
  ecn : bool;  (* DCTCP-style reaction to marked ACKs *)
}

let default_config =
  {
    mss = 1460;
    init_cwnd_segments = 10;
    min_rto = Time.ms 2;
    max_rto = Time.ms 200;
    max_cwnd_bytes = None;
    ack_priority = 7;
    dupack_threshold = 3;
    ecn = false;
  }

(* Internal metadata field: the number of stream bytes a message spans. *)
let wire_len_field = "__wire_len"

(* A message is a contiguous byte range of the stream plus the metadata
   every packet of that range carries. *)
type message = {
  m_start : int;
  m_len : int;
  m_metadata : Metadata.t;
  m_on_complete : (Time.t -> unit) option;
}

module Sender = struct
  type flow_completion = {
    fc_flow : Addr.five_tuple;
    fc_bytes : int;
    fc_started : Time.t;
    fc_completed : Time.t;
    fc_retransmissions : int;
  }

  (* The sender's float state.  OCaml stores an all-float record's
     fields unboxed, so updating the window or taking an RTT sample
     allocates nothing; a float field of [t] would box every update. *)
  type floats = {
    mutable cwnd : float;  (* bytes *)
    mutable ssthresh : float;
    mutable dctcp_alpha : float;
    mutable srtt : float;  (* ns; nan before the first sample *)
    mutable rttvar : float;
  }

  type t = {
    cfg : config;
    ev : Event.t;
    flow : Addr.five_tuple;
    alloc_packet_id : unit -> int64;
    transmit : Packet.t -> unit;
    on_flow_complete : (flow_completion -> unit) option;
    (* Stream state *)
    mutable messages : message array;  (* append-only, sorted by m_start *)
    mutable n_messages : int;
    mutable first_incomplete : int;  (* index of first un-ACKed message *)
    mutable stream_len : int;
    mutable closed : bool;
    (* Congestion state *)
    mutable una : int;  (* lowest unacknowledged byte *)
    mutable next_seq : int;
    mutable max_sent : int;  (* high-water mark of bytes ever sent *)
    f : floats;  (* cwnd, ssthresh, DCTCP alpha, RTT estimator *)
    mutable dupacks : int;
    mutable in_recovery : bool;
    mutable recover_point : int;
    (* DCTCP (when cfg.ecn) *)
    mutable ecn_window_end : int;  (* observation window boundary (seq) *)
    mutable ecn_acked : int;  (* bytes acked in the window *)
    mutable ecn_marked : int;  (* of which carried a mark *)
    (* RTO *)
    mutable rto : int;  (* ticks *)
    mutable rto_generation : int;
    mutable rto_armed : bool;
    send_times : (int, int) Hashtbl.t;  (* end_seq -> first-tx tick *)
    (* Stats / lifecycle *)
    mutable retransmissions : int;
    mutable started : Time.t option;
    mutable completed : bool;
  }

  let create ?(config = default_config) ?on_flow_complete ~ev ~flow ~alloc_packet_id
      ~transmit () =
    {
      cfg = config;
      ev;
      flow;
      alloc_packet_id;
      transmit;
      on_flow_complete;
      messages = Array.make 16 { m_start = 0; m_len = 0; m_metadata = Metadata.empty; m_on_complete = None };
      n_messages = 0;
      first_incomplete = 0;
      stream_len = 0;
      closed = false;
      una = 0;
      next_seq = 0;
      max_sent = 0;
      f =
        {
          cwnd = float_of_int (config.init_cwnd_segments * config.mss);
          ssthresh = infinity;
          dctcp_alpha = 0.0;
          srtt = Float.nan;
          rttvar = 0.0;
        };
      dupacks = 0;
      in_recovery = false;
      recover_point = 0;
      ecn_window_end = 0;
      ecn_acked = 0;
      ecn_marked = 0;
      rto = Event.ticks config.min_rto;
      rto_generation = 0;
      rto_armed = false;
      send_times = Hashtbl.create 64;
      retransmissions = 0;
      started = None;
      completed = false;
    }

  let flow t = t.flow
  let bytes_acked t = t.una
  let bytes_queued t = t.stream_len
  let cwnd_bytes t = int_of_float t.f.cwnd
  let retransmissions t = t.retransmissions
  let is_complete t = t.completed
  let srtt t = if Float.is_nan t.f.srtt then None else Some (Time.of_float_ns t.f.srtt)

  let flight t = t.next_seq - t.una

  (* The index of the message covering byte [seq] (binary search over
     starts), or -1. *)
  let message_at t seq =
    let lo = ref 0 and hi = ref (t.n_messages - 1) in
    let found = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let m = t.messages.(mid) in
      if seq < m.m_start then hi := mid - 1
      else if seq >= m.m_start + m.m_len then lo := mid + 1
      else begin
        found := mid;
        lo := !hi + 1
      end
    done;
    !found

  let cap_cwnd t =
    (match t.cfg.max_cwnd_bytes with
    | Some cap -> if t.f.cwnd > float_of_int cap then t.f.cwnd <- float_of_int cap
    | None -> ());
    if t.f.cwnd < float_of_int t.cfg.mss then t.f.cwnd <- float_of_int t.cfg.mss

  let emit_segment t ~seq ~retransmit =
    let remaining = t.stream_len - seq in
    (* Segments never span message boundaries: every packet belongs to
       exactly one message, so the class and metadata carried with it are
       unambiguous (the per-packet association of 4.2). *)
    let i = message_at t seq in
    let boundary =
      if i < 0 then remaining
      else
        let m = t.messages.(i) in
        m.m_start + m.m_len - seq
    in
    let payload = min t.cfg.mss (min remaining boundary) in
    if payload > 0 then begin
      let metadata = if i < 0 then Metadata.empty else t.messages.(i).m_metadata in
      let pkt =
        Packet.make ~id:(t.alloc_packet_id ()) ~flow:t.flow ~kind:Packet.Data ~seq
          ~payload ~metadata ()
      in
      let end_seq = seq + payload in
      if retransmit then begin
        t.retransmissions <- t.retransmissions + 1;
        (* Karn's rule: never sample RTT off a retransmitted segment. *)
        Hashtbl.remove t.send_times end_seq
      end
      else if not (Hashtbl.mem t.send_times end_seq) then
        Hashtbl.replace t.send_times end_seq (Event.now_ticks t.ev);
      t.transmit pkt
    end;
    payload

  (* --- RTO management --------------------------------------------- *)

  (* A sample of [rtt_ticks]; the RTO is rounded to ticks as
     [Time.of_float_ns] rounds. *)
  let update_rto t rtt_ticks =
    let r = t.f and rtt_ns = float_of_int rtt_ticks in
    if Float.is_nan r.srtt then begin
      r.srtt <- rtt_ns;
      r.rttvar <- rtt_ns /. 2.0
    end
    else begin
      let err = Float.abs (r.srtt -. rtt_ns) in
      r.rttvar <- (0.75 *. r.rttvar) +. (0.25 *. err);
      r.srtt <- (0.875 *. r.srtt) +. (0.125 *. rtt_ns)
    end;
    let rto = int_of_float (Float.round (r.srtt +. (4.0 *. r.rttvar))) in
    t.rto <- Int.min (Event.ticks t.cfg.max_rto) (Int.max (Event.ticks t.cfg.min_rto) rto)

  let disarm_rto t =
    t.rto_generation <- t.rto_generation + 1;
    t.rto_armed <- false

  let rec arm_rto t =
    t.rto_generation <- t.rto_generation + 1;
    t.rto_armed <- true;
    let gen = t.rto_generation in
    Event.schedule_in_ticks t.ev t.rto (fun () -> on_rto t gen)

  and on_rto t gen =
    if gen = t.rto_generation && (not t.completed) && flight t > 0 then begin
      (* Timeout: multiplicative backoff, collapse the window and resend
         from the lowest unACKed byte (go-back-N; the receiver's
         out-of-order buffer acknowledges past anything it already has,
         so duplicate coverage costs little). *)
      t.f.ssthresh <- Float.max (float_of_int (flight t) /. 2.0) (float_of_int (2 * t.cfg.mss));
      t.f.cwnd <- float_of_int t.cfg.mss;
      cap_cwnd t;
      t.in_recovery <- false;
      t.dupacks <- 0;
      t.rto <- Int.min (Event.ticks t.cfg.max_rto) (t.rto * 2);
      t.next_seq <- t.una;
      (* Karn's rule: no RTT samples across the rewind. *)
      Hashtbl.reset t.send_times;
      try_send t;
      arm_rto t
    end
    else if gen = t.rto_generation then t.rto_armed <- false

  (* --- Sending ------------------------------------------------------ *)

  and try_send t =
    if t.next_seq < t.stream_len && flight t + t.cfg.mss <= int_of_float t.f.cwnd then begin
      if t.started = None then t.started <- Some (Event.now t.ev);
      let sent = emit_segment t ~seq:t.next_seq ~retransmit:(t.next_seq < t.max_sent) in
      t.next_seq <- min t.stream_len (t.next_seq + max 1 sent);
      if t.next_seq > t.max_sent then t.max_sent <- t.next_seq;
      if not t.rto_armed then arm_rto t;
      try_send t
    end

  let push_message t msg =
    if t.n_messages = Array.length t.messages then begin
      let bigger = Array.make (2 * t.n_messages) msg in
      Array.blit t.messages 0 bigger 0 t.n_messages;
      t.messages <- bigger
    end;
    t.messages.(t.n_messages) <- msg;
    t.n_messages <- t.n_messages + 1

  let send_message t ?(metadata = Metadata.empty) ?on_complete len =
    if len <= 0 then invalid_arg "Tcp.Sender.send_message: length must be positive";
    if t.closed then invalid_arg "Tcp.Sender.send_message: flow is closed";
    (* Stamp the on-wire message length so the receiver can detect
       completion; user metadata like [msg_size] may describe the
       application operation (e.g. a 64 KB READ carried by a 256-byte
       request) rather than the bytes in the stream. *)
    let metadata =
      if Metadata.msg_id metadata <> None then
        Metadata.add wire_len_field (Metadata.int len) metadata
      else metadata
    in
    push_message t
      { m_start = t.stream_len; m_len = len; m_metadata = metadata; m_on_complete = on_complete };
    t.stream_len <- t.stream_len + len;
    if t.started = None then t.started <- Some (Event.now t.ev);
    try_send t

  let close t = t.closed <- true

  (* --- Receiving ACKs ---------------------------------------------- *)

  let fire_message_completions t now =
    let continue = ref true in
    while !continue && t.first_incomplete < t.n_messages do
      let m = t.messages.(t.first_incomplete) in
      if m.m_start + m.m_len <= t.una then begin
        (match m.m_on_complete with Some f -> f (Int64.of_int now) | None -> ());
        t.first_incomplete <- t.first_incomplete + 1
      end
      else continue := false
    done

  let check_flow_complete t now =
    if (not t.completed) && t.closed && t.una >= t.stream_len && t.stream_len > 0 then begin
      let now = Int64.of_int now in
      t.completed <- true;
      disarm_rto t;
      match t.on_flow_complete with
      | Some f ->
        f
          {
            fc_flow = t.flow;
            fc_bytes = t.stream_len;
            fc_started = Option.value ~default:now t.started;
            fc_completed = now;
            fc_retransmissions = t.retransmissions;
          }
      | None -> ()
    end

  let gc_send_times t =
    if Hashtbl.length t.send_times > 8192 then begin
      let stale =
        Hashtbl.fold (fun k _ acc -> if k <= t.una then k :: acc else acc) t.send_times []
      in
      List.iter (Hashtbl.remove t.send_times) stale
    end

  let handle_ack t (pkt : Packet.t) =
    if t.completed then ()
    else begin
      let now = Event.now_ticks t.ev in
      let ack = pkt.Packet.ack in
      if ack > t.una then begin
        let newly = ack - t.una in
        t.una <- ack;
        t.dupacks <- 0;
        if t.cfg.ecn then begin
          (* DCTCP: estimate the marked fraction over ~one RTT of data and
             scale the window back by alpha/2 once per window. *)
          t.ecn_acked <- t.ecn_acked + newly;
          if pkt.Packet.ecn then t.ecn_marked <- t.ecn_marked + newly;
          if ack >= t.ecn_window_end then begin
            let g = 1.0 /. 16.0 in
            let fraction =
              if t.ecn_acked = 0 then 0.0
              else float_of_int t.ecn_marked /. float_of_int t.ecn_acked
            in
            t.f.dctcp_alpha <- ((1.0 -. g) *. t.f.dctcp_alpha) +. (g *. fraction);
            if t.ecn_marked > 0 && not t.in_recovery then begin
              t.f.cwnd <- t.f.cwnd *. (1.0 -. (t.f.dctcp_alpha /. 2.0));
              cap_cwnd t;
              (* Marks mean congestion: leave slow start, as a real
                 ECN-reacting sender does on ECE. *)
              t.f.ssthresh <- t.f.cwnd
            end;
            t.ecn_window_end <- t.next_seq;
            t.ecn_acked <- 0;
            t.ecn_marked <- 0
          end
        end;
        (match Hashtbl.find t.send_times ack with
        | sent ->
          Hashtbl.remove t.send_times ack;
          update_rto t (now - sent)
        | exception Not_found -> ());
        gc_send_times t;
        if t.in_recovery then begin
          if ack >= t.recover_point then begin
            t.in_recovery <- false;
            t.f.cwnd <- t.f.ssthresh;
            cap_cwnd t
          end
          else
            (* NewReno partial ACK: the next hole is lost too. *)
            ignore (emit_segment t ~seq:t.una ~retransmit:true)
        end
        else begin
          if t.f.cwnd < t.f.ssthresh then t.f.cwnd <- t.f.cwnd +. float_of_int newly
          else
            t.f.cwnd <-
              t.f.cwnd
              +. (float_of_int t.cfg.mss *. float_of_int t.cfg.mss /. t.f.cwnd);
          cap_cwnd t
        end;
        if flight t > 0 then arm_rto t else disarm_rto t;
        fire_message_completions t now;
        check_flow_complete t now;
        try_send t
      end
      else if ack = t.una && flight t > 0 then begin
        t.dupacks <- t.dupacks + 1;
        if t.dupacks = t.cfg.dupack_threshold && not t.in_recovery then begin
          t.in_recovery <- true;
          t.recover_point <- t.next_seq;
          t.f.ssthresh <-
            Float.max (float_of_int (flight t) /. 2.0) (float_of_int (2 * t.cfg.mss));
          t.f.cwnd <- t.f.ssthresh;
          cap_cwnd t;
          ignore (emit_segment t ~seq:t.una ~retransmit:true)
        end
      end
    end
end

module Receiver = struct
  type msg_progress = { mutable mp_start : int; mp_size : int; mp_metadata : Metadata.t }

  type t = {
    cfg : config;
    ev : Event.t;
    ack_flow : Addr.five_tuple;  (* the sender's tuple reversed, as ACKs carry it *)
    alloc_packet_id : unit -> int64;
    transmit : Packet.t -> unit;
    on_message : (Metadata.t -> Time.t -> unit) option;
    mutable intervals : (int * int) list;  (* disjoint, sorted [start, end) *)
    mutable cum : int;
    mutable delivered : int;
    msgs : (int64, msg_progress) Hashtbl.t;  (* in-flight tagged messages *)
    mutable first_end : int;  (* no tracked message ends before this byte *)
  }

  let create ?(config = default_config) ?on_message ~ev ~flow ~alloc_packet_id ~transmit
      () =
    {
      cfg = config;
      ev;
      ack_flow = Addr.reverse flow;
      alloc_packet_id;
      transmit;
      on_message;
      intervals = [];
      cum = 0;
      delivered = 0;
      msgs = Hashtbl.create 16;
      first_end = max_int;
    }

  (* Insert [s, e) keeping the list disjoint and sorted. *)
  let rec insert_interval intervals s e =
    match intervals with
    | [] -> [ (s, e) ]
    | (s0, e0) :: rest ->
      if e < s0 then (s, e) :: intervals
      else if s > e0 then (s0, e0) :: insert_interval rest s e
      else insert_interval rest (min s s0) (max e e0)

  let rec advance_cum t =
    match t.intervals with
    | (s, e) :: rest when s <= t.cum ->
      if e > t.cum then begin
        t.delivered <- t.delivered + (e - t.cum);
        t.cum <- e
      end;
      t.intervals <- rest;
      advance_cum t
    | _ -> ()

  let note_message t (pkt : Packet.t) =
    match (t.on_message, Metadata.msg_id pkt.Packet.metadata) with
    | Some _, Some id -> (
      let len =
        match Metadata.find_int wire_len_field pkt.Packet.metadata with
        | Some _ as l -> l
        | None -> Metadata.find_int Metadata.Field.msg_size pkt.Packet.metadata
      in
      match len with
      | None -> ()
      | Some size ->
        let mp =
          match Hashtbl.find_opt t.msgs id with
          | Some mp -> mp
          | None ->
            let mp =
              {
                mp_start = pkt.Packet.seq;
                mp_size = Int64.to_int size;
                mp_metadata = pkt.Packet.metadata;
              }
            in
            Hashtbl.replace t.msgs id mp;
            mp
        in
        if pkt.Packet.seq < mp.mp_start then mp.mp_start <- pkt.Packet.seq;
        t.first_end <- min t.first_end (mp.mp_start + mp.mp_size))
    | (Some _ | None), _ -> ()

  (* A message completes once the in-order prefix covers it.  Until the
     prefix reaches [first_end] none can have, and the table is not
     scanned. *)
  let fire_completed_messages t =
    match t.on_message with
    | Some f when t.cum >= t.first_end ->
      let now = Event.now t.ev in
      let done_ids, first_end =
        Hashtbl.fold
          (fun id mp (acc, first_end) ->
            let e = mp.mp_start + mp.mp_size in
            if e <= t.cum then ((id, mp) :: acc, first_end) else (acc, min first_end e))
          t.msgs ([], max_int)
      in
      t.first_end <- first_end;
      List.iter
        (fun (id, mp) ->
          Hashtbl.remove t.msgs id;
          f mp.mp_metadata now)
        done_ids
    | Some _ | None -> ()

  let handle_data t (pkt : Packet.t) =
    if pkt.Packet.payload > 0 then begin
      note_message t pkt;
      let e = Packet.end_seq pkt in
      (* In order with nothing buffered beyond the prefix: extend the
         prefix directly, as inserting and merging the interval would. *)
      (match t.intervals with
      | [] when pkt.Packet.seq <= t.cum ->
        if e > t.cum then begin
          t.delivered <- t.delivered + (e - t.cum);
          t.cum <- e
        end
      | _ ->
        t.intervals <- insert_interval t.intervals pkt.Packet.seq e;
        advance_cum t);
      fire_completed_messages t;
      let ack =
        Packet.make ~id:(t.alloc_packet_id ()) ~flow:t.ack_flow ~kind:Packet.Ack
          ~ack:t.cum ~priority:t.cfg.ack_priority ()
      in
      (* ECN echo: the ACK for a marked segment carries the mark back. *)
      if pkt.Packet.ecn then ack.Packet.ecn <- true;
      t.transmit ack
    end

  let bytes_delivered t = t.delivered
end
