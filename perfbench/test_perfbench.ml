(* The benchmark's own checks:
   - the rebuilt [sim_fig9] scenario matches [Fig9.run_config] for one
     run with the same seed and parameters (FCT summary and counts);
   - the exact counts repeat exactly across two runs with one seed;
   - the output oracle finds no difference between the compiled and the
     interpreted enclave on both data-path streams;
   - the traced run's re-executed engines, fed the message state
     [process] read, give each sampled packet the priority [process]
     gave it;
   - the traced run emits exactly the per-layer metrics BENCHMARK.json
     lists;
   - window reduction keeps each window position's quiet repetition and
     the recorder keeps every time when it grows. *)

open Perfbench
module Fig9 = Eden_experiments.Fig9
module Time = Eden_base.Time

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let same_bucket (a : Fig9.bucket_result) (b : Fig9.bucket_result) =
  Float.equal a.Fig9.avg_us b.Fig9.avg_us
  && Float.equal a.Fig9.avg_ci95 b.Fig9.avg_ci95
  && Float.equal a.Fig9.p95_us b.Fig9.p95_us
  && a.Fig9.count = b.Fig9.count

let fig9_equivalence () =
  let params = { Sim.params with Fig9.duration = Time.ms 60; seed = 4242L } in
  let reference = Fig9.run_config params Fig9.Pias Fig9.Eden in
  let sc = Sim.build ~params ~eden:true ~seed:params.Fig9.seed () in
  ignore (Sim.run sc);
  let small, intermediate = Sim.summary sc in
  check "sim_fig9 matches Fig9.run_config (small flows)" (same_bucket small reference.Fig9.small);
  check "sim_fig9 matches Fig9.run_config (intermediate flows)"
    (same_bucket intermediate reference.Fig9.intermediate);
  check "sim_fig9 completed some flows" (small.Fig9.count + intermediate.Fig9.count > 0)

let sim_counts seed =
  let params = { Sim.params with Fig9.duration = Time.ms 60 } in
  let sc = Sim.build ~params ~eden:true ~seed () in
  let events = Sim.run sc in
  let events = events + Sim.drain sc in
  (events, Sim.host_tx sc, Sim.retransmits sc, Sim.failed_flows sc)

(* Smaller streams than the benchmark's; churn still spans a
   cache-invalidating rule push. *)
let small kind seed =
  match kind with
  | Datapath.Churn ->
    {
      Datapath.kind;
      seed;
      warm = Traffic.churn ~seed:(Int64.neg seed) ~messages:1_000;
      timed = Traffic.churn ~seed ~messages:12_000;
    }
  | Datapath.Hot ->
    let s = Traffic.hot ~seed ~packets:6_000 in
    { Datapath.kind; seed; warm = s; timed = s }

let datapath_counts kind seed =
  let w = small kind seed in
  let reference, failed = Datapath.oracle w in
  let times = Windows.recorder (Traffic.packets w.Datapath.timed) in
  let ep = Datapath.episode w ~reference ~times ~measure_live:false in
  let sut = Datapath.setup w ~engine:Policy.Compiled in
  let before = Layers.enclave_counters [ sut.Policy.enclave ] in
  Datapath.replay sut w.Datapath.timed ~base:(Datapath.timed_base w) ~pushes:(Datapath.churn w)
    (fun _ _ _ _ -> ());
  let after = Layers.enclave_counters [ sut.Policy.enclave ] in
  let steps = List.assoc "engine.steps_per_pkt" (Layers.counter_metrics ~before ~after) in
  (ep.Datapath.words /. float_of_int ep.Datapath.packets, steps, failed + ep.Datapath.failed)

let exact_counts () =
  let a = sim_counts 77L and b = sim_counts 77L in
  let ev, tx, rt, failed = a in
  check "netsim.events, host_tx_pkts and tcp.retransmits repeat for one seed" (a = b);
  check "sim_fig9 counts are non-trivial" (ev > 0 && tx > 0 && rt >= 0);
  check "sim_fig9 completes every request flow" (failed = 0);
  List.iter
    (fun (name, kind) ->
      let w1, s1, f1 = datapath_counts kind 5L and w2, s2, f2 = datapath_counts kind 5L in
      check (name ^ ": alloc_words_per_pkt repeats exactly") (Float.equal w1 w2);
      check (name ^ ": engine.steps_per_pkt repeats exactly") (Float.equal s1 s2 && s1 > 0.0);
      check (name ^ ": compiled and interpreted enclaves agree") (f1 = 0 && f2 = 0))
    [ ("hot_flows", Datapath.Hot); ("churn", Datapath.Churn) ]

let reexecution_follows_process () =
  List.iter
    (fun (name, kind) ->
      let w = small kind 5L in
      let reference, _ = Datapath.oracle w in
      let pass = Layers.traced_pass w (Layers.traced_setup w) ~reference ~rec_:(Layers.recorder ()) in
      check
        (name ^ ": re-executed engines give every sampled packet its priority")
        (pass.Layers.sampled > 0 && pass.Layers.off_path = 0 && pass.Layers.failed = 0))
    [ ("hot_flows", Datapath.Hot); ("churn", Datapath.Churn) ]

let windows_pick_quiet_repetitions () =
  let pass times =
    let r = Windows.recorder 1 in
    List.iter (Windows.add r) times;
    Windows.cut r
  in
  (* Three passes of 2500 units: one quiet, one slow in the first
     window, one slow in the last. *)
  let slow_in k = List.init 2500 (fun i -> if i / Windows.size = k then 30 else 10) in
  let grown = Windows.recorder 1 in
  List.iter (Windows.add grown) (slow_in 0);
  check "recorder keeps every time when it grows" (grown.Windows.n = 2500);
  (match Windows.reduce [ [ pass (slow_in (-1)); pass (slow_in 0); pass (slow_in 2) ] ] with
  | 1.0, [ r ] ->
    check "windows: each position keeps its quiet repetitions"
      (r.Windows.r_wall = 25_000.0 && r.Windows.r_p50 = [ 10.0; 10.0; 10.0 ])
  | _ -> check "windows: one figure per group" false);
  (* A run that was twice as fast for one pass of one group: the quiet
     moment scales every group. *)
  let even ns = pass (List.init 2500 (fun _ -> ns)) in
  match Windows.reduce [ [ even 10; even 20; even 20 ]; [ even 20; even 20; even 20 ] ] with
  | quiet, [ a; b ] ->
    check "windows: a quiet moment in one group scales every group"
      (quiet = 0.5 && a.Windows.r_wall = 25_000.0 && b.Windows.r_wall = 25_000.0)
  | _ -> check "windows: one figure per group" false

let benchmark_json_lists_per_layer_metrics () =
  let module J = Eden_telemetry.Json in
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  let listed =
    match J.parse text with
    | Ok doc -> (
      match Option.bind (J.member "per_layer" doc) J.to_list with
      | Some l -> List.filter_map (fun m -> Option.bind (J.member "name" m) J.to_str) l
      | None -> [])
    | Error _ -> []
  in
  check "BENCHMARK.json lists every per-layer metric the traced run emits"
    (listed = List.map fst Layers.per_layer_names)

let () =
  benchmark_json_lists_per_layer_metrics ();
  fig9_equivalence ();
  exact_counts ();
  reexecution_follows_process ();
  windows_pick_quiet_repetitions ();
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
