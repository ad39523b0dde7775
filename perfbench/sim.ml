(* [sim_fig9]: the Fig. 9 scenario (request-response traffic with
   web-search sizes at 70% load, plus two background flows into the
   client) with PIAS on Eden, interpreted engine.  It is rebuilt from the
   same public calls as [Eden_experiments.Fig9.run_once], except that the
   policy goes through the controller and the calendar is driven one
   [Event.step] at a time so events can be counted and timed.
   [Fig9.run_config] with one run is the reference the test compares
   against. *)

module Time = Eden_base.Time
module Rng = Eden_base.Rng
module Metadata = Eden_base.Metadata
module Stats = Eden_base.Stats
module Net = Eden_netsim.Net
module Host = Eden_netsim.Host
module Switch = Eden_netsim.Switch
module Event = Eden_netsim.Event
module Link = Eden_netsim.Link
module Tcp = Eden_netsim.Tcp
module Enclave = Eden_enclave.Enclave
module Controller = Eden_controller.Controller
module Pias = Eden_functions.Pias
module Sff = Eden_functions.Sff
module Reqresp = Eden_workloads.Reqresp
module Flowsize = Eden_workloads.Flowsize
module Fig9 = Eden_experiments.Fig9

let params = { Fig9.default_params with Fig9.runs = 1 }

(* Fig. 9's PIAS demotion thresholds. *)
let thresholds = [| 10_240L; 1_048_576L |]

type t = {
  net : Net.t;
  gen : Reqresp.t;
  hosts : Host.t list;
  enclaves : Enclave.t list;
  links : Link.t list;  (* host uplinks and switch ports *)
  background : Tcp.Sender.t list;
  ctl : Controller.t option;
  pushes_ns : int list;  (* wall time of each controller push *)
  install_ns : int;  (* the whole policy push *)
  until : Time.t;
  app_tags : (int * float) list ref;  (* wall ns and minor words of each message tagging *)
}

let ok = function Ok () -> () | Error msg -> failwith ("perfbench: sim policy push: " ^ msg)

(* [eden:false] is Fig. 9's Baseline/Native configuration: no enclave. *)
let build ?(params = params) ?(time_tagging = false) ~eden ~seed () =
  let net = Net.create ~seed () in
  let sw = Net.add_switch net in
  let worker = Net.add_host net in
  let bg = Net.add_host net in
  let client = Net.add_host net in
  let ports =
    List.map
      (fun h ->
        let p =
          Net.connect_host net h sw ~rate_bps:params.Fig9.link_rate_bps
            ?ecn_threshold_bytes:(if params.Fig9.ecn then Some 60_000 else None)
            ()
        in
        Switch.set_dst_route sw ~dst:(Host.id h) ~ports:[ p ];
        if params.Fig9.ecn then Host.set_tcp_config h { Tcp.default_config with Tcp.ecn = true };
        p)
      [ worker; bg; client ]
  in
  let pushes = ref [] in
  let timed f =
    let t0 = Clock.ns () in
    ok (f ());
    pushes := (Clock.ns () - t0) :: !pushes
  in
  let t_install = Clock.ns () in
  let ctl, enclaves =
    if not eden then (None, [])
    else begin
      let ctl = Controller.create ~seed () in
      let es =
        List.map
          (fun h ->
            let e = Enclave.create ~host:(Host.id h) ~seed:(Int64.add seed 17L) () in
            Controller.register_enclave ctl e;
            Host.set_enclave h e;
            e)
          [ worker; bg ]
      in
      timed (fun () -> Controller.install_action_everywhere ctl (Pias.spec ~variant:`Interpreted ()));
      timed (fun () ->
          Controller.set_global_array_everywhere ctl ~action:"pias" "Thresholds" thresholds);
      timed (fun () -> Controller.add_rule_everywhere ctl ~pattern:Pias.rule_pattern ~action:"pias" ());
      (Some ctl, es)
    end
  in
  let install_ns = Clock.ns () - t_install in
  let bg_md = Sff.metadata_for ~size:(1 lsl 30) in
  let bg_bytes =
    int_of_float (params.Fig9.link_rate_bps /. 8.0 *. Time.to_sec params.Fig9.duration) * 2
  in
  let background =
    List.init 2 (fun _ ->
        (Net.start_flow net ~src:(Host.id bg) ~dst:(Host.id client) ~metadata:bg_md
           ~size:bg_bytes ())
          .Net.f_sender)
  in
  let tags = ref [] in
  let msg_counter = ref 0L in
  let metadata_for ~size =
    let t0 = if time_tagging then Clock.ns () else 0 in
    let w0 = if time_tagging then Gc.minor_words () else 0.0 in
    msg_counter := Int64.add !msg_counter 1L;
    let md = Metadata.with_msg_id !msg_counter (Sff.metadata_for ~size) in
    if time_tagging then tags := (Clock.ns () - t0, Gc.minor_words () -. w0) :: !tags;
    md
  in
  let gen =
    Reqresp.launch ~net
      ~rng:(Rng.create (Int64.add seed 101L))
      ~src:(Host.id worker) ~dsts:[ Host.id client ] ~sizes:Flowsize.web_search
      ~load:params.Fig9.load ~link_rate_bps:params.Fig9.link_rate_bps ~metadata_for
      ~until:params.Fig9.duration ()
  in
  let t =
    {
      net;
      gen;
      hosts = [ worker; bg; client ];
      enclaves;
      links =
        List.filter_map Host.uplink [ worker; bg; client ] @ List.map (Switch.port sw) ports;
      background;
      ctl;
      pushes_ns = !pushes;
      install_ns;
      until = Time.add params.Fig9.duration (Time.ms 200);
      app_tags = tags;
    }
  in
  t

(* Drive the calendar to the horizon one [Event.step] at a time, calling
   [on_event] after each; returns the number of events.  A sentinel at
   the horizon stops the loop; events landing exactly on the horizon
   after it are run by [Event.run], as [Net.run ~until] would. *)
let run ?(on_event = fun () -> ()) t =
  let ev = Net.event t.net in
  let stop = ref false in
  Event.schedule_at ev t.until (fun () -> stop := true);
  let n = ref 0 in
  while (not !stop) && Event.step ev do
    incr n;
    on_event ()
  done;
  Event.run ~until:t.until ev;
  !n - 1

(* Past Fig. 9's horizon, keep stepping until every request flow has
   completed (the background flows never need to), for at most
   [drain_limit] of simulated time.  Returns the number of events. *)
let drain_limit = Time.sec 2.0

let drain ?(on_event = fun () -> ()) t =
  let ev = Net.event t.net in
  let limit = Time.add t.until drain_limit in
  let n = ref 0 in
  while
    Reqresp.completed t.gen < Reqresp.launched t.gen
    && Time.( < ) (Event.now ev) limit
    && Event.step ev
  do
    incr n;
    on_event ()
  done;
  !n

let host_tx t =
  List.fold_left
    (fun acc h -> acc + Policy.scrape_counter (Host.scrape h) "eden_host_tx_packets_total")
    0 t.hosts

let link_drops t = List.fold_left (fun acc l -> acc + (Link.stats l).Link.dropped_packets) 0 t.links

(* Retransmissions of every completed flow plus the still-open background
   flows. *)
let retransmits t =
  List.fold_left (fun acc fc -> acc + fc.Tcp.Sender.fc_retransmissions) 0 (Net.completions t.net)
  + List.fold_left
      (fun acc s -> if Tcp.Sender.is_complete s then acc else acc + Tcp.Sender.retransmissions s)
      0 t.background

(* Request flows started but never completed, plus any inconsistency in
   the completion accounting (a completion recorded twice or with a
   non-positive FCT). *)
let failed_flows t =
  let records = Reqresp.records t.gen in
  let bad_records =
    List.length (List.filter (fun r -> Time.( <= ) r.Reqresp.r_fct Time.zero) records)
  in
  let accounting = abs (List.length records - Reqresp.completed t.gen) in
  Reqresp.launched t.gen - Reqresp.completed t.gen + bad_records + accounting

(* The figure's summary, computed exactly as [Fig9.run_config] does for
   a single run. *)
let summary t =
  let bucket b =
    let s = Stats.Samples.of_list (Reqresp.fcts_us t.gen b) in
    let one = Stats.Samples.of_list [ Stats.Samples.mean s ] in
    {
      Fig9.avg_us = Stats.Samples.mean one;
      avg_ci95 = Stats.Samples.ci95 one;
      p95_us = Stats.Samples.mean (Stats.Samples.of_list [ Stats.Samples.percentile s 95.0 ]);
      count = Stats.Samples.count s;
    }
  in
  (bucket Reqresp.Small, bucket Reqresp.Intermediate)
