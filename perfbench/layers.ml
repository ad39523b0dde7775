(* Traced runs ([--trace 1]): the per-layer numbers, measured from
   outside.  The traced pass replays the same seeded traffic as the
   end-to-end run.  For every [sample_every]-th packet it brackets each
   call with the monotonic clock and [Gc.minor_words], records a span
   (name, start, end, parent, words), and re-executes the layers that
   [Enclave.process] runs internally through their public functions:
   [Builtin.flow_descriptor] + [Stage.classify] on [Enclave.flow_stage],
   [Metadata.union], [Table.lookup] over [Enclave.tables], and the
   matched actions' programs ([Enclave.action_program]) on an environment
   built from the packet and the message state [process] read.  Those
   re-executions run right after the packet, outside its send-path span,
   and are attached as logical children of its [enclave.process] span; a
   layer's self time is its span minus its children.  Counters come from the layers' own scrapes.
   Spans are kept in memory and written to [_build/perfbench-spans/] at
   the end. *)

module Packet = Eden_base.Packet
module Metadata = Eden_base.Metadata
module Addr = Eden_base.Addr
module Rng = Eden_base.Rng
module Stage = Eden_stage.Stage
module Builtin = Eden_stage.Builtin
module Enclave = Eden_enclave.Enclave
module State = Eden_enclave.State
module Table = Eden_enclave.Table
module P = Eden_bytecode.Program
module Interp = Eden_bytecode.Interp
module Compiled = Eden_bytecode.Compiled
module Controller = Eden_controller.Controller
module Reqresp = Eden_workloads.Reqresp

let median = Hist.median_of
let sample_every = 64

(* ------------------------------------------------------------------ *)
(* Spans *)

type span = { id : int; parent : int; name : string; start : int; stop : int; words : float }
type recorder = { mutable spans : span list; mutable next : int }

let recorder () = { spans = []; next = 0 }

let span r ~parent name ~start ~stop ~words =
  let id = r.next in
  r.next <- id + 1;
  r.spans <- { id; parent; name; start; stop; words } :: r.spans;
  id

let self_times r =
  let children = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (Option.value ~default:0 (Hashtbl.find_opt children s.parent) + (s.stop - s.start)))
    r.spans;
  fun s -> s.stop - s.start - Option.value ~default:0 (Hashtbl.find_opt children s.id)

let named r name = List.filter (fun s -> String.equal s.name name) r.spans
let or_zero v = if Float.is_nan v then 0.0 else v
let span_ns r name =
  or_zero (median (List.map (fun s -> float_of_int (s.stop - s.start)) (named r name)))

let span_words r name = or_zero (median (List.map (fun s -> s.words) (named r name)))

let span_self_ns r name =
  let self = self_times r in
  or_zero (median (List.map (fun s -> float_of_int (self s)) (named r name)))

let write_spans r ~workload ~seed =
  let dir = Filename.concat "_build" "perfbench-spans" in
  try
    if not (Sys.file_exists "_build") then Sys.mkdir "_build" 0o755;
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir (Printf.sprintf "%s-%Ld.tsv" workload seed) in
    let oc = open_out path in
    output_string oc "id\tparent\tname\tstart_ns\tend_ns\tminor_words\n";
    List.iter
      (fun s ->
        Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%.0f\n" s.id s.parent s.name s.start s.stop s.words)
      (List.rev r.spans);
    close_out oc;
    Printf.printf "spans: %d written to %s\n" r.next path
  with Sys_error msg -> Printf.eprintf "perfbench: spans not written: %s\n" msg

(* ------------------------------------------------------------------ *)
(* Re-executing the enclave's layers from outside *)

let packet_field (p : Packet.t) name =
  let f = p.Packet.flow in
  match name with
  | "Size" -> Packet.wire_size p
  | "PayloadSize" -> p.Packet.payload
  | "Priority" -> p.Packet.priority
  | "Path" -> Option.value ~default:0 p.Packet.route_label
  | "SrcHost" -> f.Addr.src.Addr.host
  | "SrcPort" -> f.Addr.src.Addr.port
  | "DstHost" -> f.Addr.dst.Addr.host
  | "DstPort" -> f.Addr.dst.Addr.port
  | "Proto" -> ( match f.Addr.proto with Addr.Tcp -> 6 | Addr.Udp -> 17)
  | "IsData" -> if Packet.is_data p then 1 else 0
  | "Queue" | "Charge" | "GotoTable" -> -1
  | _ -> 0

type engine = Run_compiled of Compiled.t | Run_interp of Interp.scratch

type action = {
  prog : P.t;
  engine : engine;
  sources : (string * Enclave.msg_field_source) list;
  goto_slot : int option;
  priority_slot : int option;
}

(* Per-enclave cache of the installed actions, each with its own engine
   instance so re-execution never touches the enclave's machine state. *)
let actions_of e =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (spec : Enclave.install_spec) ->
      let mk prog engine =
        let slot name =
          let r = ref None in
          Array.iteri
            (fun i (s : P.scalar_slot) ->
              if s.P.s_entity = P.Packet && String.equal s.P.s_name name then r := Some i)
            prog.P.scalar_slots;
          !r
        in
        Hashtbl.replace tbl spec.Enclave.i_name
          {
            prog;
            engine;
            sources = spec.Enclave.i_msg_sources;
            goto_slot = slot "GotoTable";
            priority_slot = slot "Priority";
          }
      in
      match spec.Enclave.i_impl with
      | Enclave.Compiled prog -> (
        match Compiled.compile prog with
        | Ok c -> mk prog (Run_compiled c)
        | Error _ -> ())
      | Enclave.Interpreted prog -> mk prog (Run_interp (Interp.make_scratch prog))
      | Enclave.Native _ -> ())
    (Enclave.snapshot e).Enclave.sn_actions;
  tbl

(* The message id [process] keys message state on: the stage's, else the
   enclave's id for the flow, learned from the metadata [process] leaves
   on the flow's packets. *)
let learn_msg_id ids (p : Packet.t) stage_md =
  if Option.is_none (Metadata.msg_id stage_md) then
    Option.iter (Addr.Flow_table.replace ids p.Packet.flow) (Metadata.msg_id p.Packet.metadata)

let msg_id_before ids (p : Packet.t) stage_md =
  match Metadata.msg_id stage_md with
  | Some id -> Some id
  | None -> Addr.Flow_table.find_opt ids p.Packet.flow

(* Each action's per-message state fields as [process] is about to read
   them, keyed by (action, field).  A message the action's store does not
   know starts from the defaults, so it is left out. *)
let msg_state_before e actions ~msg ~now =
  match msg with
  | None -> []
  | Some msg ->
    Hashtbl.fold
      (fun name a acc ->
        match Enclave.action_state e name with
        | Some st when State.msg_known st ~msg ->
          List.fold_left
            (fun acc (field, src) ->
              match src with
              | Enclave.Stateful default ->
                ((name, field), State.msg_get st ~msg ~field ~default ~now) :: acc
              | Enclave.Metadata_int _ | Enclave.Metadata_flag _ -> acc)
            acc a.sources
        | _ -> acc)
      actions []

let env_for e ~action ~state a (p : Packet.t) md =
  let scalars =
    Array.map
      (fun (s : P.scalar_slot) ->
        match s.P.s_entity with
        | P.Packet -> Int64.of_int (packet_field p s.P.s_name)
        | P.Global -> Option.value ~default:0L (Enclave.get_global e ~action s.P.s_name)
        | P.Message -> (
          match List.assoc_opt s.P.s_name a.sources with
          | Some (Enclave.Stateful d) ->
            Option.value ~default:d (List.assoc_opt (action, s.P.s_name) state)
          | Some (Enclave.Metadata_int f) -> Metadata.int_field f ~default:0L md
          | Some (Enclave.Metadata_flag (f, v)) ->
            if Metadata.str_field_is f ~expected:v md then 1L else 0L
          | None -> 0L))
      a.prog.P.scalar_slots
  in
  let arrays =
    Array.map
      (fun (s : P.array_slot) ->
        let fallback = Array.make (max 1 s.P.a_min_len) 0L in
        match s.P.a_entity with
        | P.Global -> (
          match Enclave.get_global_array e ~action s.P.a_name with
          | Some arr when Array.length arr >= s.P.a_min_len -> Array.copy arr
          | _ -> fallback)
        | P.Packet | P.Message -> fallback)
      a.prog.P.array_slots
  in
  Interp.make_env a.prog ~scalars ~arrays

(* Walk the tables as [process] does, timing each [Table.lookup] and each
   action's engine run.  Returns (lookup ns, lookup words, exec ns, exec
   words) and the packet priority the last action that has one left in
   its environment, which must be the priority [process] gave the packet
   when the re-execution follows the same program path. *)
let replay_walk e actions ~state ~now (p : Packet.t) classes =
  let rng = Rng.create 7L in
  let tables = Enclave.tables e in
  let priority = ref None in
  let rec go table hops ((lns, lw, ens, ew) as acc) =
    match List.find_opt (fun t -> Table.id t = table) tables with
    | Some tbl when hops < 8 -> (
      let w0 = Gc.minor_words () in
      let t0 = Clock.ns () in
      let rule = Table.lookup tbl classes in
      let t1 = Clock.ns () in
      let w1 = Gc.minor_words () in
      let acc = (lns + (t1 - t0), lw +. (w1 -. w0), ens, ew) in
      match rule with
      | None -> acc
      | Some r -> (
        let action = r.Table.action in
        match Hashtbl.find_opt actions action with
        | None -> acc
        | Some a ->
          let env = env_for e ~action ~state a p p.Packet.metadata in
          let w0 = Gc.minor_words () in
          let t0 = Clock.ns () in
          (match a.engine with
          | Run_compiled c -> ignore (Compiled.exec c ~env ~now ~rng)
          | Run_interp scratch -> ignore (Interp.run ~scratch a.prog ~env ~now ~rng));
          let t1 = Clock.ns () in
          let w1 = Gc.minor_words () in
          let lns, lw, ens, ew = acc in
          let acc = (lns, lw, ens + (t1 - t0), ew +. (w1 -. w0)) in
          Option.iter
            (fun i -> priority := Some (Int64.to_int env.Interp.scalars.(i)))
            a.priority_slot;
          let next =
            match a.goto_slot with
            | Some i -> Int64.to_int env.Interp.scalars.(i)
            | None -> -1
          in
          if next >= 0 && next <> table then go next (hops + 1) acc else acc))
    | _ -> acc
  in
  let times = go 0 0 (0, 0.0, 0, 0.0) in
  (times, !priority)

(* ------------------------------------------------------------------ *)
(* Metric table *)

let per_layer_names =
  [
    ("stage.classify_ns", "ns");
    ("stage.classify_words", "words");
    ("stage.flow_classify_ns", "ns");
    ("stage.flow_classify_words", "words");
    ("metadata.union_ns", "ns");
    ("metadata.union_words", "words");
    ("table.lookup_ns", "ns");
    ("table.cache_hit_ratio", "fraction");
    ("table.cache_lookups", "count");
    ("table.cache_evictions", "count");
    ("engine.exec_ns", "ns");
    ("engine.steps_per_pkt", "steps");
    ("engine.invocations_per_pkt", "count");
    ("engine.faults", "count");
    ("enclave.process_ns", "ns");
    ("enclave.process_words", "words");
    ("enclave.self_ns", "ns");
    ("enclave.model_ns", "ns");
    ("enclave.live_bytes_per_flow", "bytes");
    ("shard.feed_ns", "ns");
    ("shard.drain_ns", "ns");
    ("shard.handoff_ns", "ns");
    ("shard.backpressure_waits", "1/kpkt");
    ("shard.consumer_parks", "1/kpkt");
    ("controller.push_us", "us");
    ("controller.install_ms", "ms");
    ("controller.retries", "count");
    ("channel.ops", "count");
    ("netsim.events", "count");
    ("netsim.event_ns", "ns");
    ("netsim.host_tx_pkts", "count");
    ("netsim.link_drops", "count");
    ("tcp.retransmits", "count");
    ("netsim.flows_completed", "count");
    ("netsim.vanilla_pps", "packets/s");
    ("netsim.eden_pps", "packets/s");
    ("netsim.vanilla_words_per_pkt", "words");
    ("netsim.eden_words_per_pkt", "words");
    ("enclave.sim_wall_share", "fraction");
    ("enclave.sim_alloc_share", "fraction");
    ("gc.minor_collections_per_mpkt", "1/Mpkt");
    ("gc.major_collections", "count");
    ("gc.promoted_words_per_pkt", "words");
    ("trace.pps_untraced", "packets/s");
    ("trace.pps_traced", "packets/s");
    ("trace.overhead_pct", "%");
    ("trace.clock_read_ns", "ns");
  ]

(* Every per-layer metric is printed for every workload; a layer the
   workload never runs reports 0. *)
let emit ~workload ~correct ~attempted ~failed values =
  let metrics =
    List.map
      (fun (name, unit) ->
        Report.m name unit (or_zero (Option.value ~default:0.0 (List.assoc_opt name values))))
      per_layer_names
  in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name per_layer_names) then invalid_arg ("unlisted metric " ^ name))
    values;
  Report.print ~workload ~correct ~attempted ~failed metrics

let counter e name = Policy.scrape_counter (Enclave.scrape e) name

let enclave_counters es =
  let sum name = List.fold_left (fun a e -> a + counter e name) 0 es in
  ( sum "eden_enclave_packets_total",
    sum "eden_enclave_flow_cache_hits_total",
    sum "eden_enclave_flow_cache_misses_total",
    sum "eden_enclave_flow_cache_evictions_total",
    sum "eden_enclave_interp_steps_total",
    sum "eden_enclave_invocations_total",
    sum "eden_enclave_faults_total" )

let counter_metrics ~before ~after =
  let p0, h0, m0, ev0, s0, i0, f0 = before and p1, h1, m1, ev1, s1, i1, f1 = after in
  let pk = float_of_int (max 1 (p1 - p0)) in
  let lookups = h1 - h0 + (m1 - m0) in
  [
    ("table.cache_hit_ratio", float_of_int (h1 - h0) /. float_of_int (max 1 lookups));
    ("table.cache_lookups", float_of_int lookups);
    ("table.cache_evictions", float_of_int (ev1 - ev0));
    ("engine.steps_per_pkt", float_of_int (s1 - s0) /. pk);
    ("engine.invocations_per_pkt", float_of_int (i1 - i0) /. pk);
    ("engine.faults", float_of_int (f1 - f0));
  ]

let median_by f l = median (List.map f l)

let controller_metrics ~pushes_ns ~installs_ns ctls =
  [
    ("controller.push_us", median (List.map (fun ns -> float_of_int ns /. 1e3) pushes_ns));
    ("controller.install_ms", median (List.map (fun ns -> float_of_int ns /. 1e6) installs_ns));
    ( "controller.retries",
      float_of_int (List.fold_left (fun a c -> a + (Controller.stats c).Controller.rs_retries) 0 ctls) );
    (* Ops one system's channels carried: its set-up plus its pushes. *)
    ( "channel.ops",
      median_by
        (fun c ->
          float_of_int (Policy.scrape_counter (Controller.scrape c) "eden_channel_ops_sent_total"))
        ctls );
  ]

let gc_metrics ~packets (minor, major, promoted) =
  let pk = float_of_int (max 1 packets) in
  [
    ("gc.minor_collections_per_mpkt", minor /. pk *. 1e6);
    ("gc.major_collections", major);
    ("gc.promoted_words_per_pkt", promoted /. pk);
  ]

let trace_metrics ~untraced ~traced ~clock =
  [
    ("trace.pps_untraced", untraced);
    ("trace.pps_traced", traced);
    ("trace.overhead_pct", 100.0 *. (1.0 -. (traced /. untraced)));
    ("trace.clock_read_ns", clock);
  ]

(* ------------------------------------------------------------------ *)
(* Data-path workloads *)

let cache_misses e = (Enclave.counters e).Enclave.cache_misses

(* Set-up and warm-up as in an episode; also returns the flow ids the
   warm-up taught the enclave. *)
let traced_setup (w : Datapath.workload) =
  let sut = Policy.create ~churn:(Datapath.churn w) ~engine:Policy.Compiled ~seed:w.Datapath.seed () in
  let ids = Addr.Flow_table.create 1024 in
  Datapath.replay sut w.Datapath.warm ~base:0 ~pushes:false (fun _ md p _ -> learn_msg_id ids p md);
  (sut, ids)

type pass = {
  wall_ns : int;
  failed : int;  (* packets whose treatment differs from the oracle's *)
  model : float list;  (* cost-model ns of each sampled packet *)
  sampled : int;
  off_path : int;  (* sampled packets whose re-execution gave another priority *)
}

(* One traced pass over the timed stream on a system from [traced_setup]. *)
let traced_pass (w : Datapath.workload) ((sut : Policy.t), ids) ~reference ~rec_ =
  let e = sut.Policy.enclave in
  let actions = actions_of e in
  let s = w.Datapath.timed in
  let base = Datapath.timed_base w and pushes = Datapath.churn w in
  let failed = ref 0 and model = ref [] and sampled_n = ref 0 and off_path = ref 0 in
  let start = Clock.ns () in
  Array.iter
    (fun (m : Traffic.msg) ->
      let wc0 = Gc.minor_words () in
      let tc0 = Clock.ns () in
      let md = Policy.classify sut m in
      let tc1 = Clock.ns () in
      let wc1 = Gc.minor_words () in
      for k = 0 to m.Traffic.m_count - 1 do
        let i = m.Traffic.m_first + k in
        let sampled = i mod sample_every = 0 in
        let misses0 = if sampled then cache_misses e else 0 in
        let ts = if k = 0 then tc0 else Clock.ns () in
        let push =
          if pushes && i > 0 && i mod Policy.push_every = 0 then begin
            let a = Clock.ns () in
            Policy.control_push sut (i / Policy.push_every);
            Some (a, Clock.ns ())
          end
          else None
        in
        let p = s.Traffic.pkts.(i) in
        Datapath.reset p md;
        let now = Datapath.now_of ~base i in
        let state =
          if sampled then msg_state_before e actions ~msg:(msg_id_before ids p md) ~now else []
        in
        let wp0 = Gc.minor_words () in
        let tp0 = Clock.ns () in
        (match Enclave.process e ~now p with
        | d -> if reference.(i) <> Datapath.outcome d p then incr failed
        | exception _ -> incr failed);
        let tp1 = Clock.ns () in
        let wp1 = Gc.minor_words () in
        learn_msg_id ids p md;
        if m.Traffic.m_close && k = m.Traffic.m_count - 1 then begin
          Policy.close_flow sut p md;
          Addr.Flow_table.remove ids p.Packet.flow
        end;
        let te = Clock.ns () in
        if sampled then begin
          let root = span rec_ ~parent:(-1) "send_path" ~start:ts ~stop:te ~words:nan in
          if k = 0 then
            ignore (span rec_ ~parent:root "stage.classify" ~start:tc0 ~stop:tc1 ~words:(wc1 -. wc0));
          (match push with
          | Some (a, b) -> ignore (span rec_ ~parent:root "controller.push" ~start:a ~stop:b ~words:nan)
          | None -> ());
          let proc =
            span rec_ ~parent:root "enclave.process" ~start:tp0 ~stop:tp1 ~words:(wp1 -. wp0)
          in
          model := Enclave.last_process_cost_ns e :: !model;
          let missed = cache_misses e > misses0 in
          (* Flow classification, as [process] runs it. *)
          let w0 = Gc.minor_words () in
          let t0 = Clock.ns () in
          let flow_md =
            Stage.classify ~msg_id:0L (Enclave.flow_stage e) (Builtin.flow_descriptor p.Packet.flow)
          in
          let t1 = Clock.ns () in
          let w1 = Gc.minor_words () in
          ignore (span rec_ ~parent:proc "stage.flow_classify" ~start:t0 ~stop:t1 ~words:(w1 -. w0));
          let w0 = Gc.minor_words () in
          let t0 = Clock.ns () in
          let merged = Metadata.union flow_md md in
          let t1 = Clock.ns () in
          let w1 = Gc.minor_words () in
          ignore (span rec_ ~parent:proc "metadata.union" ~start:t0 ~stop:t1 ~words:(w1 -. w0));
          let (lns, lw, ens, ew), priority =
            replay_walk e actions ~state ~now p (Metadata.classes merged)
          in
          incr sampled_n;
          if Option.fold ~none:false ~some:(( <> ) p.Packet.priority) priority then incr off_path;
          let t = Clock.ns () in
          (* A lookup is on the packet's path only when it missed the cache. *)
          ignore
            (span rec_ ~parent:(if missed then proc else -1) "table.lookup" ~start:t ~stop:(t + lns)
               ~words:lw);
          ignore (span rec_ ~parent:proc "engine.exec" ~start:t ~stop:(t + ens) ~words:ew)
        end
      done)
    s.Traffic.msgs;
  {
    wall_ns = Clock.ns () - start;
    failed = !failed;
    model = !model;
    sampled = !sampled_n;
    off_path = !off_path;
  }

let pps packets wall_ns = float_of_int packets /. (float_of_int wall_ns /. 1e9)

let distinct_flows (s : Traffic.t) =
  let t = Addr.Flow_table.create 1024 in
  Array.iter (fun (p : Packet.t) -> Addr.Flow_table.replace t p.Packet.flow ()) s.Traffic.pkts;
  Addr.Flow_table.length t

(* Rounds alternate an untraced episode with a traced one until the time
   budget is spent (at least [min_rounds]). *)
let min_rounds = 3

let rounds ~seconds f =
  let deadline = Clock.ns () + (seconds * 1_000_000_000) in
  let r = ref 0 in
  while !r < min_rounds || Clock.ns () < deadline do
    incr r;
    f !r
  done;
  !r

let datapath_traced kind ~workload ~seed ~seconds =
  let w = Datapath.make kind ~seed in
  let clock = Clock.read_cost_ns () in
  let reference, oracle_failed = Datapath.oracle w in
  let rec_ = recorder () in
  let times = Windows.recorder (Traffic.packets w.Datapath.timed) in
  let untraced = ref [] and traced = ref [] and models = ref [] and failed = ref oracle_failed in
  let installs = ref [] and pushes = ref [] and ctls = ref [] and counters = ref [] in
  let live_per_flow = ref [] and sampled = ref 0 and off_path = ref 0 in
  let n = Traffic.packets w.Datapath.timed in
  let rounds =
    rounds ~seconds (fun r ->
    Windows.reset times;
    let ep = Datapath.episode w ~reference ~times ~measure_live:false in
    untraced := ep :: !untraced;
    failed := !failed + ep.Datapath.failed;
    (* Traced: set-up, warm-up and pass as in the episode, plus spans. *)
    let live0 = if r = 1 then Datapath.live_words () else 0 in
    let ((sut, _) as system) = traced_setup w in
    let before = enclave_counters [ sut.Policy.enclave ] in
    (* Spans are kept from the first rounds only; later rounds record
       into a discarded recorder, so they cost the same. *)
    let rec_ = if r <= min_rounds then rec_ else recorder () in
    let pass = traced_pass w system ~reference ~rec_ in
    counters := (before, enclave_counters [ sut.Policy.enclave ]) :: !counters;
    if r = 1 then begin
      let flows = distinct_flows w.Datapath.warm + distinct_flows w.Datapath.timed in
      let grown = Datapath.live_words () - live0 in
      live_per_flow :=
        (float_of_int (grown * (Sys.word_size / 8)) /. float_of_int flows) :: !live_per_flow
    end;
    traced := pps n pass.wall_ns :: !traced;
    failed := !failed + pass.failed;
    models := pass.model @ !models;
    sampled := !sampled + pass.sampled;
    off_path := !off_path + pass.off_path;
    installs := sut.Policy.install_ns :: !installs;
    pushes := sut.Policy.pushes_ns @ !pushes;
    ctls := sut.Policy.ctl :: !ctls)
  in
  (* The shard front-end on the same stream (replicas of the same
     configuration, default shard count). *)
  let feed_hist = Hist.create () in
  let sharded, shard_stats =
    List.split
      (List.init 2 (fun _ ->
           Datapath.sharded_episode ~feed_hist w ~hist:(Hist.create ()) ~measure_live:false))
  in
  List.iter (fun (ep : Datapath.episode) -> failed := !failed + ep.Datapath.failed) sharded;
  let per_pkt (ep : Datapath.episode) =
    float_of_int ep.Datapath.wall_ns /. float_of_int ep.Datapath.packets
  in
  let per_k f =
    median_by (fun (s : Datapath.shard_stats) -> float_of_int (f s) /. (float_of_int n /. 1e3)) shard_stats
  in
  let before, after = List.hd !counters in
  let untraced_pps =
    median_by (fun (ep : Datapath.episode) -> pps ep.Datapath.packets ep.Datapath.wall_ns) !untraced
  in
  let gc =
    let pick f = median_by (fun (ep : Datapath.episode) -> f ep.Datapath.gc) !untraced in
    (pick (fun (a, _, _) -> a), pick (fun (_, b, _) -> b), pick (fun (_, _, c) -> c))
  in
  write_spans rec_ ~workload ~seed;
  Printf.printf "re-executed engines: %d of %d sampled packets got another priority\n" !off_path
    !sampled;
  (* The oracle pass, two passes per round, two sharded passes. *)
  let attempted = n * (1 + (2 * rounds) + 2) in
  emit ~workload ~correct:(!failed = 0) ~attempted ~failed:!failed
    ([
       ("stage.classify_ns", span_ns rec_ "stage.classify");
       ("stage.classify_words", span_words rec_ "stage.classify");
       ("stage.flow_classify_ns", span_ns rec_ "stage.flow_classify");
       ("stage.flow_classify_words", span_words rec_ "stage.flow_classify");
       ("metadata.union_ns", span_ns rec_ "metadata.union");
       ("metadata.union_words", span_words rec_ "metadata.union");
       ("table.lookup_ns", span_ns rec_ "table.lookup");
       ("engine.exec_ns", span_ns rec_ "engine.exec");
       ("enclave.process_ns", span_ns rec_ "enclave.process");
       ("enclave.process_words", span_words rec_ "enclave.process");
       ("enclave.self_ns", span_self_ns rec_ "enclave.process");
       ("enclave.model_ns", median !models);
       ("enclave.live_bytes_per_flow", median !live_per_flow);
       ("shard.feed_ns", Hist.percentile feed_hist 0.5);
       ( "shard.drain_ns",
         median_by (fun (s : Datapath.shard_stats) -> float_of_int s.Datapath.drain_ns) shard_stats );
       ("shard.handoff_ns", median_by per_pkt sharded -. median_by per_pkt !untraced);
       ("shard.backpressure_waits", per_k (fun s -> s.Datapath.backpressure));
       ("shard.consumer_parks", per_k (fun s -> s.Datapath.parks));
     ]
    @ counter_metrics ~before ~after
    @ controller_metrics ~pushes_ns:!pushes ~installs_ns:!installs !ctls
    @ gc_metrics ~packets:n gc
    @ trace_metrics ~untraced:untraced_pps ~traced:(median !traced) ~clock)

(* ------------------------------------------------------------------ *)
(* Simulator *)

type sim_run = {
  wall_ns : int;
  events : int;
  tx : int;
  words : float;
  gc : float * float * float;
  flows : int;  (* request flows started *)
  failed : int;  (* request flows started but never completed *)
}

let sim_once ?on_event sc =
  let g0 = Datapath.gc_counts () in
  let w0 = Gc.minor_words () in
  let t0 = Clock.ns () in
  let events = Sim.run ?on_event sc in
  let events = events + Sim.drain ?on_event sc in
  let wall_ns = Clock.ns () - t0 in
  let words = Gc.minor_words () -. w0 in
  {
    wall_ns;
    events;
    tx = Sim.host_tx sc;
    words;
    gc = Datapath.gc_delta g0 (Datapath.gc_counts ());
    flows = Reqresp.launched sc.Sim.gen;
    failed = Sim.failed_flows sc;
  }

(* A traced simulation: app tagging, and a sample of events as spans with
   the worker enclave's cost-model ns at each. *)
let sim_traced_once ~seed ~rec_ ~models =
  let sc = Sim.build ~eden:true ~time_tagging:true ~seed () in
  let worker = List.hd sc.Sim.enclaves in
  let before = enclave_counters sc.Sim.enclaves in
  let count = ref 0 in
  let prev = ref (Clock.ns ()) in
  let on_event () =
    let t = Clock.ns () in
    incr count;
    if !count mod sample_every = 0 then begin
      ignore (span rec_ ~parent:(-1) "netsim.event" ~start:!prev ~stop:t ~words:nan);
      models := Enclave.last_process_cost_ns worker :: !models
    end;
    prev := Clock.ns ()
  in
  let run = sim_once ~on_event sc in
  (sc, before, run)

(* Rounds run the scenario untraced on Eden, on Baseline/Native, and
   traced, so the tracing overhead compares runs taken side by side.
   Spans, counters and live heap come from the first round's traced run. *)
let sim_traced ~workload ~seed ~seconds =
  let seed = E2e.sim_seed ~seed 0 in
  let clock = Clock.read_cost_ns () in
  let eden = ref [] and vanilla = ref [] and traced = ref [] in
  let installs = ref [] and pushes = ref [] in
  let rec_ = recorder () and models = ref [] and first = ref None in
  ignore
    (rounds ~seconds (fun r ->
         let sc = Sim.build ~eden:true ~seed () in
         installs := sc.Sim.install_ns :: !installs;
         pushes := sc.Sim.pushes_ns @ !pushes;
         eden := sim_once sc :: !eden;
         vanilla := sim_once (Sim.build ~eden:false ~seed ()) :: !vanilla;
         if r = 1 then begin
           let live0 = Datapath.live_words () in
           let sc, before, run = sim_traced_once ~seed ~rec_ ~models in
           let after = enclave_counters sc.Sim.enclaves in
           let grown = Datapath.live_words () - live0 in
           traced := run :: !traced;
           first := Some (sc, run, before, after, grown)
         end
         else begin
           let _, _, run = sim_traced_once ~seed ~rec_:(recorder ()) ~models:(ref []) in
           traced := run :: !traced
         end));
  let sc, first_run, before, after, grown =
    match !first with Some f -> f | None -> assert false
  in
  let flows = Reqresp.launched sc.Sim.gen + List.length sc.Sim.background in
  List.iter
    (fun (ns, words) ->
      let t = Clock.ns () in
      ignore (span rec_ ~parent:(-1) "stage.classify" ~start:t ~stop:(t + ns) ~words))
    !(sc.Sim.app_tags);
  let runs = !eden @ !vanilla @ !traced in
  let attempted = List.fold_left (fun a r -> a + r.flows) 0 runs in
  let failed = List.fold_left (fun a r -> a + r.failed) 0 runs in
  write_spans rec_ ~workload ~seed;
  let pps_of r = pps r.tx r.wall_ns and words_of r = r.words /. float_of_int (max 1 r.tx) in
  let wall_per_pkt r = float_of_int r.wall_ns /. float_of_int (max 1 r.tx) in
  let eden_pps = median_by pps_of !eden and vanilla_pps = median_by pps_of !vanilla in
  let eden_words = median_by words_of !eden and vanilla_words = median_by words_of !vanilla in
  let gc =
    let pick f = median_by (fun r -> f r.gc) !eden in
    (pick (fun (a, _, _) -> a), pick (fun (_, b, _) -> b), pick (fun (_, _, c) -> c))
  in
  let ctls = Option.to_list sc.Sim.ctl in
  emit ~workload ~correct:(failed = 0) ~attempted ~failed
    ([
       ("stage.classify_ns", span_ns rec_ "stage.classify");
       ("stage.classify_words", span_words rec_ "stage.classify");
       ("enclave.model_ns", median !models);
       ("enclave.live_bytes_per_flow", float_of_int (grown * (Sys.word_size / 8)) /. float_of_int flows);
       ("netsim.events", float_of_int first_run.events);
       ( "netsim.event_ns",
         median_by (fun r -> float_of_int r.wall_ns /. float_of_int (max 1 r.events)) !eden );
       ("netsim.host_tx_pkts", float_of_int first_run.tx);
       ("netsim.link_drops", float_of_int (Sim.link_drops sc));
       ("tcp.retransmits", float_of_int (Sim.retransmits sc));
       ("netsim.flows_completed", float_of_int (Reqresp.completed sc.Sim.gen));
       ("netsim.vanilla_pps", vanilla_pps);
       ("netsim.eden_pps", eden_pps);
       ("netsim.vanilla_words_per_pkt", vanilla_words);
       ("netsim.eden_words_per_pkt", eden_words);
       ( "enclave.sim_wall_share",
         1.0 -. (median_by wall_per_pkt !vanilla /. median_by wall_per_pkt !eden) );
       ("enclave.sim_alloc_share", 1.0 -. (vanilla_words /. eden_words));
     ]
    @ counter_metrics ~before ~after
    @ controller_metrics ~pushes_ns:!pushes ~installs_ns:!installs ctls
    @ gc_metrics ~packets:(median_by (fun r -> float_of_int r.tx) !eden |> int_of_float) gc
    @ trace_metrics ~untraced:eden_pps ~traced:(median_by pps_of !traced) ~clock)

(* ------------------------------------------------------------------ *)
(* Cross-check of the outside-in timer against Bechamel *)

let crosscheck () =
  let e = Enclave.create ~host:1 () in
  (match Eden_functions.Pias.install ~variant:`Compiled e ~thresholds:[| 10_240L; 1_048_576L |] with
  | Ok () -> ()
  | Error msg -> failwith msg);
  let pkt =
    Packet.make ~id:1L
      ~flow:(Addr.five_tuple ~src:(Addr.endpoint 1 1000) ~dst:(Addr.endpoint 2 80) ~proto:Addr.Tcp)
      ~kind:Packet.Data ~payload:1000 ()
  in
  let now = Eden_base.Time.us 1 in
  let call () = ignore (Enclave.process e ~now pkt) in
  for _ = 1 to 10_000 do
    call ()
  done;
  let clock = Clock.read_cost_ns () in
  (* Outside-in, as the benchmark times a packet: one clock bracket per
     call, median over a batch. *)
  let bracketed () =
    let h = Hist.create () in
    for _ = 1 to 20_000 do
      let t0 = Clock.ns () in
      call ();
      Hist.add h (Clock.ns () - t0)
    done;
    Hist.percentile h 0.5
  in
  (* Outside-in over a whole batch: one bracket per 20k calls. *)
  let batched () =
    let t0 = Clock.ns () in
    for _ = 1 to 20_000 do
      call ()
    done;
    float_of_int (Clock.ns () - t0) /. 20_000.0
  in
  let open Bechamel in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let test = Test.make ~name:"process compiled pias" (Staged.stage call) in
  let bechamel () =
    let raw = Benchmark.all cfg instances test in
    let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
    Hashtbl.fold
      (fun _ r acc -> match Analyze.OLS.estimates r with Some (x :: _) -> x :: acc | _ -> acc)
      results []
  in
  (* Interleaved rounds, so a slow phase of the machine hits all three. *)
  let rounds = List.init 7 (fun _ -> (bracketed (), batched (), bechamel ())) in
  let show l = String.concat " " (List.map (Printf.sprintf "%.0f") (List.sort compare l)) in
  Printf.printf "clock read: %.1f ns\n" clock;
  Printf.printf "outside-in, bracket per call (median of 20k calls), 7 rounds: %s ns\n"
    (show (List.map (fun (a, _, _) -> a) rounds));
  Printf.printf "outside-in, one bracket per 20k calls, 7 rounds: %s ns\n"
    (show (List.map (fun (_, b, _) -> b) rounds));
  Printf.printf "bechamel micro/enclave/process compiled pias (OLS), 7 rounds: %s ns\n"
    (show (List.concat_map (fun (_, _, c) -> c) rounds))
