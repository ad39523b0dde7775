module Addr = Eden_base.Addr
module Packet = Eden_base.Packet
module Metadata = Eden_base.Metadata
module Time = Eden_base.Time
module Rng = Eden_base.Rng
module P = Eden_bytecode.Program
module Stage = Eden_stage.Stage
module Ruleset = Eden_stage.Ruleset
module Tel = Eden_telemetry

type event =
  | Ev_packet of Time.t * Packet.t
  | Ev_set_global of { action : string; name : string; value : int64 }
  | Ev_set_global_array of { action : string; name : string; values : int64 array }

(* Ring items.  [I_packet] carries the result array of its stream so a
   worker can publish the decision by index; [I_fire] is the
   measurement path (decision discarded); control items are broadcast
   to every ring so each shard applies them at its own deterministic
   stream position. *)
type item =
  | I_none
  | I_packet of {
      pkt : Packet.t;
      now : Time.t;
      idx : int;
      res : Enclave.decision option array;
    }
  | I_fire of { pkt : Packet.t; now : Time.t }
  | I_op of Config.op
  | I_stop

type worker = {
  w_enclave : Enclave.t;
  w_ring : item Spsc.t;
  w_processed : int Atomic.t;
  mutable w_pushed : int;  (* feeder-thread private *)
  mutable w_domain : unit Domain.t option;
  w_errors : int Atomic.t;
  (* Parking spot for a feeder waiting in [drain]. *)
  w_lock : Mutex.t;
  w_done : Condition.t;
  w_feeder_waiting : bool Atomic.t;
}

type t = {
  s_workers : worker array;
  s_parallel : bool;
  s_batch : int;
  s_classes : (string * P.concurrency) list;  (* install order *)
  mutable s_stopped : bool;
  (* Front-end telemetry.  The enqueue-side cells are touched only by
     the (single) feeder thread; worker-side numbers (parks, per-domain
     processed) are synced from their racy sources at scrape time. *)
  s_tel : Tel.Registry.t;
  sm_enqueued : Tel.Counter.t;
  sh_occupancy : Tel.Histogram.t;  (* ring depth seen at each enqueue *)
  sm_bp_parks : Tel.Counter.t;
  sm_cons_parks : Tel.Counter.t;
  sg_domains : Tel.Gauge.t;
  sm_domain_processed : Tel.Counter.t array;  (* per worker domain *)
}

let shards t = Array.length t.s_workers
let parallel t = t.s_parallel
let classification t = t.s_classes

(* 64-bit finalizer (murmur3) — RSS-style spreading of correlated keys. *)
let mix_int64 v =
  let v = Int64.mul (Int64.logxor v (Int64.shift_right_logical v 33)) 0xFF51AFD7ED558CCDL in
  let v = Int64.mul (Int64.logxor v (Int64.shift_right_logical v 33)) 0xC4CEB9FE1A85EC53L in
  Int64.logxor v (Int64.shift_right_logical v 33)

(* Mirrors the grouping key of [Enclave.process_batch]: the stage
   message id when the packet arrives with one, the flow five-tuple
   otherwise — so every packet of one logical key lands on one shard,
   in stream order, and per-key state evolves exactly as sequentially. *)
let route t (pkt : Packet.t) =
  let n = Array.length t.s_workers in
  if n = 1 then 0
  else
    let key =
      match Metadata.msg_id pkt.Packet.metadata with
      | Some id -> id
      | None -> Int64.of_int (Addr.hash_five_tuple pkt.Packet.flow)
    in
    Int64.to_int (Int64.rem (Int64.logand (mix_int64 key) Int64.max_int) (Int64.of_int n))

(* ------------------------------------------------------------------ *)
(* Item execution — shared verbatim by worker domains and serial replay.
   [Set_global_array] binds a copy, so live arrays never alias
   across shards. *)
let exec_item w = function
  | I_packet { pkt; now; idx; res } -> res.(idx) <- Some (Enclave.process w.w_enclave ~now pkt)
  | I_fire { pkt; now } -> ignore (Enclave.process w.w_enclave ~now pkt)
  | I_op op -> ignore (Enclave.apply w.w_enclave op)
  | I_none | I_stop -> ()

let worker_loop w batch =
  let buf = Array.make batch I_none in
  let stop = ref false in
  while not !stop do
    let n = Spsc.pop_batch_wait w.w_ring buf in
    for i = 0 to n - 1 do
      (match buf.(i) with
      | I_stop -> stop := true
      | item -> ( try exec_item w item with _ -> Atomic.incr w.w_errors));
      buf.(i) <- I_none
    done;
    ignore (Atomic.fetch_and_add w.w_processed n);
    if Atomic.get w.w_feeder_waiting then begin
      Mutex.lock w.w_lock;
      Condition.broadcast w.w_done;
      Mutex.unlock w.w_lock
    end
  done

(* ------------------------------------------------------------------ *)
(* Creation *)

let default_shards () = max 1 (Domain.recommended_domain_count () - 1)

(* The snapshot leaves the flow stage out, so each replica gets the
   source's flow-stage rule-sets here, in order.  A replica starts with
   its own built-in [flows.ALL] rule; that goes, and every source rule is
   created again, the built-in one included while the source keeps it.
   The source's first rule-set is [flows] too, so the rule-set order
   carries over. *)
let mirror_flow_stage ~source r =
  let dst = Enclave.flow_stage r in
  List.iter
    (fun rs ->
      List.iter
        (fun (rule : Ruleset.rule) ->
          ignore
            (Stage.Api.remove_stage_rule dst ~ruleset:(Ruleset.id rs)
               ~rule_id:rule.Ruleset.rule_id))
        (Ruleset.rules rs))
    (Stage.rulesets dst);
  List.fold_left
    (fun acc rs ->
      List.fold_left
        (fun acc (rule : Ruleset.rule) ->
          Result.bind acc (fun () ->
              Stage.Api.create_stage_rule dst ~ruleset:(Ruleset.id rs)
                ~classifier:rule.Ruleset.classifier ~class_name:rule.Ruleset.class_name
                ~metadata_fields:rule.Ruleset.metadata_fields
              |> Result.map ignore))
        acc (Ruleset.rules rs))
    (Ok ())
    (Stage.rulesets (Enclave.flow_stage source))

let create ?shards ?(parallel = true) ?(ring_capacity = 1024) ?(batch = 64) source =
  let n = match shards with Some n -> n | None -> default_shards () in
  if n < 1 || n > 64 then Error "Shard.create: shards must be in [1, 64]"
  else if ring_capacity < 2 then Error "Shard.create: ring_capacity must be >= 2"
  else if batch < 1 then Error "Shard.create: batch must be positive"
  else begin
    let snap = Enclave.snapshot source in
    let classes =
      List.map
        (fun (s : Config.install_spec) ->
          let name = s.Config.i_name in
          (name, Option.value (Enclave.concurrency_of source name) ~default:`Serial))
        snap.Config.sn_actions
    in
    (* A serial action (global writes, or native) keeps the whole enclave
       on one replica, so its invocations run in stream order. *)
    let n = if List.exists (fun (_, c) -> c = `Serial) classes then 1 else n in
    let mk_replica i =
      let r =
        Enclave.create
          ~placement:(Enclave.placement source)
          ~seed:(Rng.stream_seed (Enclave.seed source) i)
          ~flow_cache_capacity:(Enclave.flow_cache_capacity source)
          ~host:(Enclave.host source) ()
      in
      Enclave.set_budget_ns r (Enclave.budget_ns source);
      match Result.bind (Enclave.restore r snap) (fun () -> mirror_flow_stage ~source r) with
      | Ok () -> Ok r
      | Error e -> Error (Printf.sprintf "Shard.create: replica %d: %s" i e)
    in
    let rec build i acc =
      if i = n then Ok (List.rev acc)
      else
        match mk_replica i with
        | Error _ as e -> e
        | Ok r -> build (i + 1) (r :: acc)
    in
    match build 0 [] with
    | Error e -> Error e
    | Ok replicas ->
      let workers =
        Array.map
          (fun r ->
            {
              w_enclave = r;
              w_ring = Spsc.create ~dummy:I_none ring_capacity;
              w_processed = Atomic.make 0;
              w_pushed = 0;
              w_domain = None;
              w_errors = Atomic.make 0;
              w_lock = Mutex.create ();
              w_done = Condition.create ();
              w_feeder_waiting = Atomic.make false;
            })
          (Array.of_list replicas)
      in
      let tel = Tel.Registry.create () in
      let t =
        { s_workers = workers; s_parallel = parallel; s_batch = batch; s_classes = classes;
          s_stopped = false;
          s_tel = tel;
          sm_enqueued =
            Tel.Registry.counter tel ~help:"Items enqueued to worker rings"
              "eden_shard_enqueued_total";
          sh_occupancy =
            Tel.Registry.histogram tel ~help:"Ring occupancy seen at enqueue"
              "eden_shard_ring_occupancy";
          sm_bp_parks =
            Tel.Registry.counter tel ~help:"Feeder parks on a full ring"
              "eden_shard_backpressure_parks_total";
          sm_cons_parks =
            Tel.Registry.counter tel ~help:"Worker parks on an empty ring"
              "eden_shard_consumer_parks_total";
          sg_domains = Tel.Registry.gauge tel ~help:"Worker domains" "eden_shard_domains";
          sm_domain_processed =
            Array.init n (fun i ->
                Tel.Registry.counter tel
                  ~help:(Printf.sprintf "Items processed by worker domain %d" i)
                  (Printf.sprintf "eden_shard_domain%d_processed_total" i));
        }
      in
      Tel.Gauge.set_int t.sg_domains n;
      if parallel then
        Array.iter
          (fun w -> w.w_domain <- Some (Domain.spawn (fun () -> worker_loop w batch)))
          workers;
      Ok t
  end

(* ------------------------------------------------------------------ *)
(* Feeding, draining, streams *)

let check_live t name = if t.s_stopped then invalid_arg (name ^ ": shard runtime stopped")

let enqueue t w item =
  Tel.Histogram.observe t.sh_occupancy (Spsc.length w.w_ring);
  Tel.Counter.inc t.sm_enqueued;
  Spsc.push w.w_ring item;
  w.w_pushed <- w.w_pushed + 1

let drain_worker w =
  if Atomic.get w.w_processed < w.w_pushed then begin
    let spins = ref 4096 in
    while Atomic.get w.w_processed < w.w_pushed && !spins > 0 do
      decr spins;
      Domain.cpu_relax ()
    done;
    if Atomic.get w.w_processed < w.w_pushed then begin
      Mutex.lock w.w_lock;
      Atomic.set w.w_feeder_waiting true;
      while Atomic.get w.w_processed < w.w_pushed do
        Condition.wait w.w_done w.w_lock
      done;
      Atomic.set w.w_feeder_waiting false;
      Mutex.unlock w.w_lock
    end
  end

let drain t = if t.s_parallel then Array.iter drain_worker t.s_workers

(* Hand an item to its worker's ring, or run it inline in serial mode. *)
let send t w item = if t.s_parallel then enqueue t w item else exec_item w item

let broadcast t op =
  let item = I_op op in
  Array.iter (fun w -> send t w item) t.s_workers

let dispatch t res idx ev =
  match ev with
  | Ev_packet (now, pkt) -> send t t.s_workers.(route t pkt) (I_packet { pkt; now; idx; res })
  | Ev_set_global { action; name; value } -> broadcast t (Set_global { action; name; value })
  | Ev_set_global_array { action; name; values } ->
    broadcast t (Set_global_array { action; name; value = values })

let process_stream t events =
  check_live t "Shard.process_stream";
  let res = Array.make (Array.length events) None in
  Array.iteri (fun idx ev -> dispatch t res idx ev) events;
  drain t;
  res

let feed t ~now pkt =
  check_live t "Shard.feed";
  send t t.s_workers.(route t pkt) (I_fire { pkt; now })

(* ------------------------------------------------------------------ *)
(* Merged observation *)

let counters t =
  drain t;
  let sum f = Array.fold_left (fun n w -> n + f (Enclave.counters w.w_enclave)) 0 t.s_workers in
  {
    Enclave.packets = sum (fun c -> c.Enclave.packets);
    dropped = sum (fun c -> c.dropped);
    invocations = sum (fun c -> c.invocations);
    native_invocations = sum (fun c -> c.native_invocations);
    compiled_invocations = sum (fun c -> c.compiled_invocations);
    faults = sum (fun c -> c.faults);
    interp_steps = sum (fun c -> c.interp_steps);
    quarantined = sum (fun c -> c.quarantined);
    cache_hits = sum (fun c -> c.cache_hits);
    cache_misses = sum (fun c -> c.cache_misses);
    cache_evictions = sum (fun c -> c.cache_evictions);
  }

(* A global is written only by a serial action, which runs on the one
   replica; every other global is read-only and the same on each. *)
let get_global t ~action name =
  drain t;
  Enclave.get_global t.s_workers.(0).w_enclave ~action name

let get_global_array t ~action name =
  drain t;
  Enclave.get_global_array t.s_workers.(0).w_enclave ~action name

let backpressure_waits t =
  Array.fold_left (fun acc w -> acc + Spsc.backpressure_waits w.w_ring) 0 t.s_workers

let consumer_parks t =
  Array.fold_left (fun acc w -> acc + Spsc.consumer_parks w.w_ring) 0 t.s_workers

let worker_errors t =
  Array.fold_left (fun acc w -> acc + Atomic.get w.w_errors) 0 t.s_workers

(* ------------------------------------------------------------------ *)
(* Telemetry *)

(* Pull worker-side numbers (owned by other domains, read racily like
   [counters]) into the front-end registry cells. *)
let sync_telemetry t =
  Tel.Gauge.set_int t.sg_domains (Array.length t.s_workers);
  Tel.Counter.set t.sm_bp_parks (backpressure_waits t);
  Tel.Counter.set t.sm_cons_parks (consumer_parks t);
  Array.iteri
    (fun i w -> Tel.Counter.set t.sm_domain_processed.(i) (Atomic.get w.w_processed))
    t.s_workers

let scrape t =
  drain t;
  sync_telemetry t;
  Tel.Registry.merge
    (Tel.Registry.scrape t.s_tel
    :: Array.to_list (Array.map (fun w -> Enclave.scrape w.w_enclave) t.s_workers))

let set_timing t b = Array.iter (fun w -> Enclave.set_timing w.w_enclave b) t.s_workers

let attach_traces t ?(capacity = 256) ~every () =
  Array.iter
    (fun w ->
      Enclave.set_trace w.w_enclave
        (Some
           (Tel.Trace.create ~seed:(Enclave.seed w.w_enclave) ~every ~capacity ())))
    t.s_workers

let detach_traces t = Array.iter (fun w -> Enclave.set_trace w.w_enclave None) t.s_workers

let worker_trace t i = Enclave.trace t.s_workers.(i).w_enclave

let stop t =
  if not t.s_stopped then begin
    t.s_stopped <- true;
    if t.s_parallel then begin
      Array.iter (fun w -> enqueue t w I_stop) t.s_workers;
      Array.iter
        (fun w ->
          match w.w_domain with
          | Some d ->
            Domain.join d;
            w.w_domain <- None
          | None -> ())
        t.s_workers
    end
  end
