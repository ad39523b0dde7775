module Time = Eden_base.Time
module Metadata = Eden_base.Metadata
module Net = Eden_netsim.Net
module Host = Eden_netsim.Host
module Switch = Eden_netsim.Switch
module Enclave = Eden_enclave.Enclave
module Pulsar = Eden_functions.Pulsar
module Storage = Eden_workloads.Storage
module Stage = Eden_stage.Stage
module Builtin = Eden_stage.Builtin
module Classifier = Eden_stage.Classifier

type mode = Isolated | Simultaneous | Rate_controlled

let mode_to_string = function
  | Isolated -> "isolated"
  | Simultaneous -> "simultaneous"
  | Rate_controlled -> "rate-controlled"

type engine = Native | Eden

type params = {
  duration : Time.t;
  warmup : Time.t;
  link_rate_bps : float;
  disk_rate_bps : float;
  tenant_rate_bps : float;
  op_bytes : int;
  seed : int64;
}

let default_params =
  {
    duration = Time.ms 400;
    warmup = Time.ms 100;
    link_rate_bps = 1e9;
    disk_rate_bps = 1e9;
    tenant_rate_bps = 0.5e9;
    op_bytes = Storage.default_op_bytes;
    seed = 1100L;
  }

type result = {
  mode : mode;
  engine : engine option;
  read_mbps : float;
  write_mbps : float;
}

(* The storage stage, programmed (as the controller would) to classify IOs
   into READ/WRITE classes carrying {operation, msg_size, tenant}. *)
let make_storage_stage () =
  let stage = Builtin.storage () in
  let add op cls =
    match
      Stage.Api.create_stage_rule stage ~ruleset:"ops"
        ~classifier:[ (Builtin.Field.operation, Classifier.eq_str op) ]
        ~class_name:cls
        ~metadata_fields:
          [ Builtin.Field.operation; Builtin.Field.msg_size; Builtin.Field.tenant ]
    with
    | Ok _ -> ()
    | Error msg -> invalid_arg ("Fig11: stage rule: " ^ msg)
  in
  add "READ" "READ";
  add "WRITE" "WRITE";
  stage

let classify_with stage ~tenant ~op ~size =
  Stage.classify stage (Builtin.storage_descriptor ~op ~tenant ~size)

let run_mode params ?engine mode =
  let net = Net.create ~seed:params.seed () in
  let sw = Net.add_switch net in
  let reader_host = Net.add_host net in
  let writer_host = Net.add_host net in
  let server_host = Net.add_host net in
  List.iter
    (fun h ->
      let p = Net.connect_host net h sw ~rate_bps:params.link_rate_bps () in
      Switch.set_dst_route sw ~dst:(Host.id h) ~ports:[ p ])
    [ reader_host; writer_host; server_host ];
  let srv = Storage.server ~net ~host:(Host.id server_host) ~disk_rate_bps:params.disk_rate_bps in
  let stage = make_storage_stage () in
  (* Pulsar: enclave on each client host, one rate-limited queue per
     tenant, charged by operation size for READs. *)
  if mode = Rate_controlled then begin
    let engine = Option.value ~default:Eden engine in
    List.iteri
      (fun tenant h ->
        let e =
          Enclave.create ~host:(Host.id h) ~seed:(Int64.add params.seed 31L) ()
        in
        let variant = match engine with Native -> `Native | Eden -> `Interpreted in
        (match Pulsar.install ~variant e ~queue_map:[| 0; 1 |] with
        | Ok () -> ()
        | Error msg -> invalid_arg ("Fig11: " ^ msg));
        Host.set_enclave h e;
        Host.define_rate_queue h ~queue:tenant ~rate_bps:params.tenant_rate_bps ())
      [ reader_host; writer_host ]
  end;
  let mk_reader () =
    Storage.read_client ~net ~server:srv ~host:(Host.id reader_host) ~tenant:0
      ~op_bytes:params.op_bytes
      ~classify:(fun ~op ~size -> classify_with stage ~tenant:0 ~op ~size)
      ()
  in
  let mk_writer () =
    Storage.write_client ~net ~server:srv ~host:(Host.id writer_host) ~tenant:1
      ~op_bytes:params.op_bytes
      ~classify:(fun ~op ~size -> classify_with stage ~tenant:1 ~op ~size)
      ()
  in
  let finish = Time.add params.warmup params.duration in
  let measure client =
    match client with
    | None -> 0.0
    | Some c -> Storage.throughput_mbytes_per_sec c ~since:params.warmup ~now:finish
  in
  let reader, writer =
    match mode with
    | Isolated ->
      (* Run the two tenants in separate simulations; here: reader only,
         then a fresh call handles the writer (see run_all).  For a single
         call we run both phases back to back in one run by running the
         reader alone — simplest is to do both in this function with two
         nets, but we already have one; run reader alone here and writer
         alone in a second net below. *)
      (Some (mk_reader ()), None)
    | Simultaneous | Rate_controlled -> (Some (mk_reader ()), Some (mk_writer ()))
  in
  (match reader with Some c -> Storage.start c ~at:Time.zero | None -> ());
  (match writer with Some c -> Storage.start c ~at:Time.zero | None -> ());
  Net.run ~until:finish net;
  let read_mbps = measure reader in
  let write_mbps = measure writer in
  (* Isolated writer: a second, independent run. *)
  let write_mbps =
    if mode = Isolated then begin
      let net2 = Net.create ~seed:(Int64.add params.seed 1L) () in
      let sw2 = Net.add_switch net2 in
      let wh = Net.add_host net2 in
      let sh = Net.add_host net2 in
      List.iter
        (fun h ->
          let p = Net.connect_host net2 h sw2 ~rate_bps:params.link_rate_bps () in
          Switch.set_dst_route sw2 ~dst:(Host.id h) ~ports:[ p ])
        [ wh; sh ];
      let srv2 = Storage.server ~net:net2 ~host:(Host.id sh) ~disk_rate_bps:params.disk_rate_bps in
      let w =
        Storage.write_client ~net:net2 ~server:srv2 ~host:(Host.id wh) ~tenant:1
          ~op_bytes:params.op_bytes
          ~classify:(fun ~op ~size -> classify_with stage ~tenant:1 ~op ~size)
          ()
      in
      Storage.start w ~at:Time.zero;
      Net.run ~until:finish net2;
      Storage.throughput_mbytes_per_sec w ~since:params.warmup ~now:finish
    end
    else write_mbps
  in
  { mode; engine = (if mode = Rate_controlled then Some (Option.value ~default:Eden engine) else None);
    read_mbps; write_mbps }

let run_all ?(params = default_params) () =
  [
    run_mode params Isolated;
    run_mode params Simultaneous;
    run_mode params ~engine:Eden Rate_controlled;
    run_mode params ~engine:Native Rate_controlled;
  ]

let print results =
  Printf.printf "Figure 11: READ vs WRITE throughput at the storage server (MB/s)\n";
  Printf.printf "%-24s | %10s %10s\n" "mode" "READs" "WRITEs";
  Printf.printf "%s\n" (String.make 50 '-');
  List.iter
    (fun r ->
      let label =
        match r.engine with
        | Some Eden -> mode_to_string r.mode ^ " (EDEN)"
        | Some Native -> mode_to_string r.mode ^ " (native)"
        | None -> mode_to_string r.mode
      in
      Printf.printf "%-24s | %10.1f %10.1f\n" label r.read_mbps r.write_mbps)
    results
