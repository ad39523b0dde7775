module Time = Eden_base.Time
module Rng = Eden_base.Rng
module Metadata = Eden_base.Metadata
module Stats = Eden_base.Stats
module Net = Eden_netsim.Net
module Host = Eden_netsim.Host
module Switch = Eden_netsim.Switch
module Tcp = Eden_netsim.Tcp
module Enclave = Eden_enclave.Enclave
module Pias = Eden_functions.Pias
module Sff = Eden_functions.Sff
module Flowsize = Eden_workloads.Flowsize
module Reqresp = Eden_workloads.Reqresp

type scheme = Baseline | Pias | Sff

let scheme_to_string = function Baseline -> "baseline" | Pias -> "PIAS" | Sff -> "SFF"

type engine = Native | Eden

let engine_to_string = function Native -> "native" | Eden -> "EDEN"

type params = {
  runs : int;
  duration : Time.t;
  load : float;
  link_rate_bps : float;
  ecn : bool;  (* run over DCTCP (marking links + reacting TCP) *)
  seed : int64;
}

let default_params =
  {
    runs = 5;
    duration = Time.ms 300;
    load = 0.7;
    link_rate_bps = 1e9;
    ecn = false;
    seed = 900L;
  }

type bucket_result = { avg_us : float; avg_ci95 : float; p95_us : float; count : int }

type result = {
  scheme : scheme;
  engine : engine;
  small : bucket_result;
  intermediate : bucket_result;
}

(* PIAS-style thresholds matching the paper's priority classes:
   small (<10 KB) highest, intermediate (10 KB–1 MB) next, rest
   background. *)
let thresholds = [| 10_240L; 1_048_576L |]
let background_flow_size_hint = 1 lsl 30

let install_policy scheme engine enclave =
  let ok = function
    | Ok () -> ()
    | Error msg -> invalid_arg ("Fig9: policy install failed: " ^ msg)
  in
  match (scheme, engine) with
  | Baseline, Native -> ()
  | Baseline, Eden ->
    (* Paper's "Baseline (EDEN)": full classification and interpretation,
       outputs ignored before transmission. *)
    ok (Pias.install ~variant:`Interpreted enclave ~thresholds);
    Enclave.set_enforce enclave false
  | Pias, Native -> ok (Pias.install ~variant:`Native enclave ~thresholds)
  | Pias, Eden -> ok (Pias.install ~variant:`Interpreted enclave ~thresholds)
  | Sff, Native -> ok (Sff.install ~variant:`Native enclave ~thresholds)
  | Sff, Eden -> ok (Sff.install ~variant:`Interpreted enclave ~thresholds)

let needs_enclave = function Baseline, Native -> false | _ -> true

type scenario = {
  net : Net.t;
  requests : Reqresp.t;
  background : Tcp.Sender.t list;
  horizon : Time.t;
}

let scenario params scheme engine ~seed =
  let net = Net.create ~seed () in
  let sw = Net.add_switch net in
  let worker = Net.add_host net in
  let bg = Net.add_host net in
  let client = Net.add_host net in
  List.iter
    (fun h ->
      let p =
        Net.connect_host net h sw ~rate_bps:params.link_rate_bps
          ?ecn_threshold_bytes:(if params.ecn then Some 60_000 else None)
          ()
      in
      Switch.set_dst_route sw ~dst:(Host.id h) ~ports:[ p ];
      if params.ecn then
        Host.set_tcp_config h { Tcp.default_config with Tcp.ecn = true })
    [ worker; bg; client ];
  if needs_enclave (scheme, engine) then begin
    List.iter
      (fun h ->
        let e = Enclave.create ~host:(Host.id h) ~seed:(Int64.add seed 17L) () in
        install_policy scheme engine e;
        Host.set_enclave h e)
      [ worker; bg ]
  end;
  (* Background: two long-running flows that keep the client link busy.
     Under SFF they announce an enormous flow size (lowest priority);
     under PIAS they demote on their own. *)
  let bg_md = Sff.metadata_for ~size:background_flow_size_hint in
  let bg_bytes =
    int_of_float (params.link_rate_bps /. 8.0 *. Time.to_sec params.duration) * 2
  in
  let background =
    List.init 2 (fun _ ->
        (Net.start_flow net ~src:(Host.id bg) ~dst:(Host.id client) ~metadata:bg_md
           ~size:bg_bytes ())
          .Net.f_sender)
  in
  let msg_counter = ref 0L in
  let metadata_for ~size =
    msg_counter := Int64.add !msg_counter 1L;
    Metadata.with_msg_id !msg_counter (Sff.metadata_for ~size)
  in
  let gen =
    Reqresp.launch ~net
      ~rng:(Rng.create (Int64.add seed 101L))
      ~src:(Host.id worker)
      ~dsts:[ Host.id client ]
      ~sizes:Flowsize.web_search ~load:params.load ~link_rate_bps:params.link_rate_bps
      ~metadata_for ~until:params.duration ()
  in
  { net; requests = gen; background; horizon = Time.add params.duration (Time.ms 200) }

(* One simulation run; returns (avg_small, p95_small, avg_int, p95_int). *)
let run_once params scheme engine ~seed =
  let sc = scenario params scheme engine ~seed in
  Net.run ~until:sc.horizon sc.net;
  let bucket b =
    let s = Stats.Samples.of_list (Reqresp.fcts_us sc.requests b) in
    (Stats.Samples.mean s, Stats.Samples.percentile s 95.0, Stats.Samples.count s)
  in
  let sm_avg, sm_p95, sm_n = bucket Reqresp.Small in
  let im_avg, im_p95, im_n = bucket Reqresp.Intermediate in
  ((sm_avg, sm_p95, sm_n), (im_avg, im_p95, im_n))

let summarize per_run =
  let avgs = Stats.Samples.of_list (List.map (fun (a, _, _) -> a) per_run) in
  let p95s = Stats.Samples.of_list (List.map (fun (_, p, _) -> p) per_run) in
  let count = List.fold_left (fun acc (_, _, n) -> acc + n) 0 per_run in
  {
    avg_us = Stats.Samples.mean avgs;
    avg_ci95 = Stats.Samples.ci95 avgs;
    p95_us = Stats.Samples.mean p95s;
    count;
  }

let run_config params scheme engine =
  let runs =
    List.init params.runs (fun i ->
        run_once params scheme engine ~seed:(Int64.add params.seed (Int64.of_int i)))
  in
  {
    scheme;
    engine;
    small = summarize (List.map fst runs);
    intermediate = summarize (List.map snd runs);
  }

let run_all ?(params = default_params) () =
  List.concat_map
    (fun scheme -> List.map (fun engine -> run_config params scheme engine) [ Native; Eden ])
    [ Baseline; Pias; Sff ]

let print results =
  Printf.printf
    "Figure 9: flow completion times (request-response @70%% load, web-search sizes)\n";
  Printf.printf "%-10s %-7s | %12s %12s %8s | %12s %12s %8s\n" "scheme" "engine"
    "small avg" "small p95" "n" "inter avg" "inter p95" "n";
  Printf.printf "%s\n" (String.make 92 '-');
  List.iter
    (fun r ->
      Printf.printf
        "%-10s %-7s | %9.0fus±%-4.0f %9.0fus %8d | %9.0fus±%-4.0f %9.0fus %8d\n"
        (scheme_to_string r.scheme) (engine_to_string r.engine) r.small.avg_us
        r.small.avg_ci95 r.small.p95_us r.small.count r.intermediate.avg_us
        r.intermediate.avg_ci95 r.intermediate.p95_us r.intermediate.count)
    results
