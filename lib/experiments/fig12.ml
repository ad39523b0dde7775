module Time = Eden_base.Time
module Stats = Eden_base.Stats
module Metadata = Eden_base.Metadata
module Net = Eden_netsim.Net
module Host = Eden_netsim.Host
module Switch = Eden_netsim.Switch
module Tcp = Eden_netsim.Tcp
module Event = Eden_netsim.Event
module Enclave = Eden_enclave.Enclave
module Cost = Eden_enclave.Cost
module Sff = Eden_functions.Sff

type component = Api | Enclave_mech | Interpreter

let component_to_string = function
  | Api -> "API"
  | Enclave_mech -> "enclave"
  | Interpreter -> "interpreter"

type params = {
  flows : int;
  duration : Time.t;
  warmup : Time.t;
  window : Time.t;
  link_rate_bps : float;
  seed : int64;
}

let default_params =
  {
    flows = 12;
    duration = Time.ms 200;
    warmup = Time.ms 20;
    window = Time.ms 10;
    link_rate_bps = 10e9;
    seed = 1200L;
  }

type result = { component : component; avg_pct : float; p95_pct : float }

type run_output = {
  results : result list;
  total_avg_pct : float;
  packets : int;
  windows : int;
}

let run ?(params = default_params) () =
  let net = Net.create ~seed:params.seed () in
  let sw = Net.add_switch net in
  let sender = Net.add_host net in
  let sink = Net.add_host net in
  List.iter
    (fun h ->
      let p = Net.connect_host net h sw ~rate_bps:params.link_rate_bps () in
      Switch.set_dst_route sw ~dst:(Host.id h) ~ports:[ p ])
    [ sender; sink ];
  let enclave = Enclave.create ~host:(Host.id sender) ~seed:params.seed () in
  (match Sff.install enclave ~thresholds:[| 10_240L; 1_048_576L |] with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Fig12: " ^ msg));
  Host.set_enclave sender enclave;
  let bytes_per_flow =
    int_of_float (params.link_rate_bps /. 8.0
                  *. Time.to_sec (Time.add params.duration params.warmup))
    / params.flows * 2
  in
  for i = 1 to params.flows do
    let md =
      Metadata.with_msg_id (Int64.of_int i) (Sff.metadata_for ~size:bytes_per_flow)
    in
    let flow = Net.open_flow net ~src:(Host.id sender) ~dst:(Host.id sink) () in
    Tcp.Sender.send_message flow.Net.f_sender ~metadata:md bytes_per_flow;
    Tcp.Sender.close flow.Net.f_sender
  done;
  (* Snapshot the enclave's counts every window; each window's shares are
     the model applied to the counts it added. *)
  let m = Enclave.cost_model enclave in
  let api_s = Stats.Samples.create () in
  let enc_s = Stats.Samples.create () in
  let int_s = Stats.Samples.create () in
  let last = ref (Enclave.cost enclave) in
  let rec sample at =
    if Time.( <= ) at (Time.add params.warmup params.duration) then
      Event.schedule_at (Net.event net) at (fun () ->
          let s = Enclave.cost enclave in
          let d = Cost.sub s !last in
          let dv = Cost.vanilla_ns m d in
          if dv > 0.0 then begin
            Stats.Samples.add api_s (Cost.api_ns m d /. dv *. 100.0);
            Stats.Samples.add enc_s (Cost.enclave_ns m d /. dv *. 100.0);
            Stats.Samples.add int_s (Cost.interp_ns m d /. dv *. 100.0)
          end;
          last := s;
          sample (Time.add at params.window))
  in
  Event.schedule_at (Net.event net) params.warmup (fun () -> last := Enclave.cost enclave);
  sample (Time.add params.warmup params.window);
  Net.run ~until:(Time.add params.warmup params.duration) net;
  let result component samples =
    {
      component;
      avg_pct = Stats.Samples.mean samples;
      p95_pct = Stats.Samples.percentile samples 95.0;
    }
  in
  {
    results = [ result Api api_s; result Enclave_mech enc_s; result Interpreter int_s ];
    total_avg_pct =
      Stats.Samples.mean api_s +. Stats.Samples.mean enc_s +. Stats.Samples.mean int_s;
    packets = (Enclave.cost enclave).Cost.packets;
    windows = Stats.Samples.count api_s;
  }

let print out =
  Printf.printf
    "Figure 12: Eden CPU overhead vs the vanilla stack (SFF, 12 flows at 10G)\n";
  Printf.printf "%-12s | %9s %9s\n" "component" "avg (%)" "p95 (%)";
  Printf.printf "%s\n" (String.make 36 '-');
  List.iter
    (fun r ->
      Printf.printf "%-12s | %9.2f %9.2f\n" (component_to_string r.component) r.avg_pct
        r.p95_pct)
    out.results;
  Printf.printf "%-12s | %9.2f\n" "total" out.total_avg_pct;
  Printf.printf "(%d packets, %d sampling windows)\n" out.packets out.windows
