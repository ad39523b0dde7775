module Enclave = Eden_enclave.Enclave
module Config = Eden_enclave.Config
module Time = Eden_base.Time
module Rng = Eden_base.Rng
module Tel = Eden_telemetry

type fault =
  | Drop
  | Ack_lost
  | Duplicate
  | Delay of int
  | Crash_restart

let fault_to_string = function
  | Drop -> "drop"
  | Ack_lost -> "ack_lost"
  | Duplicate -> "duplicate"
  | Delay n -> Printf.sprintf "delay(%d)" n
  | Crash_restart -> "crash_restart"

type error =
  | Lost
  | Timeout
  | Crashed
  | Partitioned
  | Rejected of string

let error_to_string = function
  | Lost -> "lost"
  | Timeout -> "timeout"
  | Crashed -> "enclave crashed"
  | Partitioned -> "partitioned"
  | Rejected msg -> "rejected: " ^ msg

let is_transient = function Rejected _ -> false | Lost | Timeout | Crashed | Partitioned -> true

(* An op held back by [Delay n]: delivered just before the [n]th
   subsequent protocol interaction on this channel. *)
type delayed = { dl_op_id : int64; dl_gen : int; dl_op : Config.op; mutable dl_left : int }

(* The memo table makes delivery exactly-once over an at-least-once
   transport: retries and duplicates of an op id replay the recorded
   outcome instead of re-applying.  It is soft state — an enclave restart
   wipes it, which is exactly why the desired state, not the channel, is
   the source of truth. *)
let memo_cap = 65_536

type t = {
  ch_enclave : Enclave.t;
  ch_rng : Rng.t;
  mutable ch_partitioned : bool;
  mutable ch_script : (int * fault) list;  (* delivery index -> fault *)
  mutable ch_fault_rate : float;
  mutable ch_seq : int;  (* delivery attempts (unpartitioned sends) *)
  mutable ch_delayed : delayed list;  (* oldest first *)
  ch_applied : (int64, (int64, string) result) Hashtbl.t;
  mutable ch_acked_generation : int;
  mutable ch_divergent : bool;
  (* The counters are bumped live; the two gauges are read off the
     backlog and the watermark at scrape. *)
  ch_tel : Tel.Registry.t;
  chm_ops : Tel.Counter.t;
  chm_faults : Tel.Counter.t;
  chm_restarts : Tel.Counter.t;
  chg_delayed : Tel.Gauge.t;
  chg_acked : Tel.Gauge.t;
}

let create ?(seed = 0xFA17L) enclave =
  let tel = Tel.Registry.create () in
  {
    ch_enclave = enclave;
    ch_rng = Rng.create (Int64.add seed (Int64.of_int (Enclave.host enclave)));
    ch_partitioned = false;
    ch_script = [];
    ch_fault_rate = 0.0;
    ch_seq = 0;
    ch_delayed = [];
    ch_applied = Hashtbl.create 256;
    ch_acked_generation = 0;
    ch_divergent = false;
    ch_tel = tel;
    chm_ops = Tel.Registry.counter tel ~help:"Control ops sent" "eden_channel_ops_sent_total";
    chm_faults =
      Tel.Registry.counter tel ~help:"Injected channel faults"
        "eden_channel_faults_injected_total";
    chm_restarts =
      Tel.Registry.counter tel ~help:"Injected enclave crash-restarts"
        "eden_channel_restarts_injected_total";
    chg_delayed =
      Tel.Registry.gauge tel ~help:"Ops held back by Delay faults" "eden_channel_delayed";
    chg_acked =
      Tel.Registry.gauge tel ~help:"Highest generation acked by this enclave"
        "eden_channel_acked_generation";
  }

let enclave t = t.ch_enclave
let host t = Enclave.host t.ch_enclave
let acked_generation t = t.ch_acked_generation
let partitioned t = t.ch_partitioned
let set_partitioned t b = t.ch_partitioned <- b
let divergent t = t.ch_divergent
let mark_divergent t = t.ch_divergent <- true
let clear_divergent t = t.ch_divergent <- false
let ops_sent t = Tel.Counter.get t.chm_ops
let faults_injected t = Tel.Counter.get t.chm_faults
let delayed_count t = List.length t.ch_delayed

let sync_telemetry t =
  Tel.Gauge.set_int t.chg_delayed (List.length t.ch_delayed);
  Tel.Gauge.set_int t.chg_acked t.ch_acked_generation

let telemetry t =
  sync_telemetry t;
  t.ch_tel

let scrape t =
  sync_telemetry t;
  Tel.Registry.scrape t.ch_tel

let script t faults = t.ch_script <- faults

let set_fault_rate t p =
  if p < 0.0 || p > 1.0 then invalid_arg "Channel.set_fault_rate: rate must be in [0, 1]";
  t.ch_fault_rate <- p

(* ------------------------------------------------------------------ *)
(* Receiver side *)

let deliver t ~op_id ~gen op =
  match Hashtbl.find_opt t.ch_applied op_id with
  | Some outcome -> outcome
  | None ->
    let outcome = Enclave.apply t.ch_enclave op in
    if Hashtbl.length t.ch_applied >= memo_cap then Hashtbl.reset t.ch_applied;
    Hashtbl.replace t.ch_applied op_id outcome;
    (match outcome with
    | Ok _ -> if gen > t.ch_acked_generation then t.ch_acked_generation <- gen
    | Error _ -> ());
    outcome

let restart t =
  Enclave.restart t.ch_enclave;
  Hashtbl.reset t.ch_applied;
  t.ch_acked_generation <- 0;
  t.ch_delayed <- [];
  Tel.Counter.inc t.chm_restarts

let inject_restart = restart

(* Deliver delayed ops that have run out of holding time.  Called at the
   start of every protocol interaction, so a [Delay n] op lands before
   the [n]th later send/pull. *)
let flush_due t =
  List.iter (fun d -> d.dl_left <- d.dl_left - 1) t.ch_delayed;
  let due, still = List.partition (fun d -> d.dl_left <= 0) t.ch_delayed in
  t.ch_delayed <- still;
  List.iter (fun d -> ignore (deliver t ~op_id:d.dl_op_id ~gen:d.dl_gen d.dl_op)) due

let flush_delayed t =
  let due = t.ch_delayed in
  t.ch_delayed <- [];
  List.iter (fun d -> ignore (deliver t ~op_id:d.dl_op_id ~gen:d.dl_gen d.dl_op)) due

let random_fault t =
  match Rng.int t.ch_rng 4 with
  | 0 -> Drop
  | 1 -> Ack_lost
  | 2 -> Duplicate
  | _ -> Delay (1 + Rng.int t.ch_rng 3)

let next_fault t =
  let idx = t.ch_seq in
  t.ch_seq <- idx + 1;
  match List.assoc_opt idx t.ch_script with
  | Some f -> Some f
  | None ->
    if t.ch_fault_rate > 0.0 && Rng.float t.ch_rng 1.0 < t.ch_fault_rate then
      Some (random_fault t)
    else None

let send t ~op_id ~gen op =
  Tel.Counter.inc t.chm_ops;
  if t.ch_partitioned then Error Partitioned
  else begin
    flush_due t;
    let fault = next_fault t in
    (match fault with Some _ -> Tel.Counter.inc t.chm_faults | None -> ());
    match fault with
    | None -> (
      match deliver t ~op_id ~gen op with Ok _ as ok -> ok | Error m -> Error (Rejected m))
    | Some Drop -> Error Lost
    | Some Ack_lost ->
      ignore (deliver t ~op_id ~gen op);
      Error Timeout
    | Some Duplicate -> (
      ignore (deliver t ~op_id ~gen op);
      match deliver t ~op_id ~gen op with Ok _ as ok -> ok | Error m -> Error (Rejected m))
    | Some (Delay n) ->
      t.ch_delayed <-
        t.ch_delayed @ [ { dl_op_id = op_id; dl_gen = gen; dl_op = op; dl_left = max 1 n } ];
      Error Timeout
    | Some Crash_restart ->
      restart t;
      Error Crashed
  end

(* ------------------------------------------------------------------ *)
(* Reads *)

let read t f = if t.ch_partitioned then Error Partitioned else Ok (f t.ch_enclave)

let pull_state t =
  if t.ch_partitioned then Error Partitioned
  else begin
    flush_due t;
    Ok (Enclave.snapshot t.ch_enclave, t.ch_acked_generation)
  end
