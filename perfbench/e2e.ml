(* End-to-end runs ([--trace 0]): repeat whole episodes (set-up, then
   one timed pass) until the time budget is spent.  Every episode of a
   group replays identical work (the data path: one stream; the
   simulator: one scenario seed), so its timed pass is cut into windows
   that line up across the group's episodes.  Each window position takes
   the median of its repetitions, scaled to the quiet moments of the
   whole run ([Windows.reduce]), which rejects the slow moments a shared
   machine inflicts.  Rates are a pass's work over the summed window
   times; latency percentiles are taken per window and reported as the
   median over window positions.  A set-up is too long to fall in a quiet
   moment, so set-up time is the median set-up, scaled by the quiet
   factor of the run's windows.  Groups then weigh the same.
   Allocation and live heap are deterministic and use every episode. *)

let median = Hist.median_of

(* Live heap is measured (two full major GCs) on the first few episodes
   only; it repeats exactly for a given seed. *)
let live_episodes = 5

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6

(* [f 0], [f 1], ... in whole rounds of [round] calls, until the time
   budget is spent and at least [min] calls were made. *)
let repeat ~seconds ~round ~min f =
  let deadline = Clock.ns () + (seconds * 1_000_000_000) in
  let rec go i acc =
    let acc = f i :: acc in
    let i = i + 1 in
    if i < min || i mod round <> 0 || Clock.ns () < deadline then go i acc else List.rev acc
  in
  go 0 []

(* One episode's figures, whatever the workload. *)
type sample = {
  group : int64;  (* episodes of one group replay identical work *)
  setups : float list;  (* s; one per set-up made *)
  windows : Windows.window array;  (* the timed pass *)
  units : int;  (* packets through the send path (host-transmitted for the simulator) *)
  words : float;
  live_words : int option;
  attempted : int;
  failed : int;
}

let report ~workload ~extra_attempted ~extra_failed samples =
  let groups = List.sort_uniq compare (List.map (fun s -> s.group) samples) in
  let of_group g = List.filter (fun s -> s.group = g) samples in
  let quiet, reduced = Windows.reduce (List.map (fun g -> List.map (fun s -> s.windows) (of_group g)) groups) in
  let mean f =
    List.fold_left (fun acc r -> acc +. f r) 0.0 reduced /. float_of_int (List.length reduced)
  in
  (* Every episode of a group does the same work. *)
  let pass_units g = median (List.map (fun s -> float_of_int s.units) (of_group g)) in
  let wall = List.fold_left (fun acc r -> acc +. r.Windows.r_wall) 0.0 reduced in
  let setups = List.map (fun g -> List.concat_map (fun s -> s.setups) (of_group g)) groups in
  let sum f = List.fold_left (fun acc s -> acc +. f s) 0.0 samples in
  let attempted = List.fold_left (fun a s -> a + s.attempted) extra_attempted samples in
  let failed = List.fold_left (fun a s -> a + s.failed) extra_failed samples in
  let fail_ratio = float_of_int failed /. float_of_int (max 1 attempted) in
  Printf.printf "%-18s %-36s %20.6g %s\n" workload "fail_ratio" fail_ratio "fraction";
  (* Quiet speed over typical speed: near 1 when the machine was calm
     throughout, lower the more other tenants slowed the run. *)
  Printf.printf "%-18s %-36s %20.6g %s\n" workload "quiet_factor" quiet "fraction";
  Report.print ~workload ~correct:(failed = 0) ~attempted ~failed
    [
      Report.m "pps" "packets/s"
        (List.fold_left (fun acc g -> acc +. pass_units g) 0.0 groups /. (wall /. 1e9));
      Report.m "latency_p50_ns" "ns" (mean (fun r -> median r.Windows.r_p50));
      Report.m "latency_p90_ns" "ns" (mean (fun r -> median r.Windows.r_p90));
      Report.m "alloc_words_per_pkt" "words"
        (sum (fun s -> s.words) /. sum (fun s -> float_of_int s.units));
      Report.m "live_mb" "MB"
        (median (List.filter_map (fun s -> Option.map mb s.live_words) samples));
      Report.m "setup_s" "s"
        (quiet
        *. List.fold_left (fun acc g -> acc +. median g) 0.0 setups
        /. float_of_int (List.length groups));
    ]

let datapath_e2e kind ~workload ~seed ~seconds =
  let w = Datapath.make kind ~seed in
  let reference, oracle_failed = Datapath.oracle w in
  let times = Windows.recorder (Traffic.packets w.Datapath.timed) in
  let samples =
    repeat ~seconds ~round:1 ~min:4 (fun i ->
        Windows.reset times;
        let e = Datapath.episode w ~reference ~times ~measure_live:(i < live_episodes) in
        {
          group = 0L;
          setups = [ float_of_int e.Datapath.setup_ns /. 1e9 ];
          windows = Windows.cut times;
          units = e.Datapath.packets;
          words = e.Datapath.words;
          live_words = e.Datapath.live_words;
          attempted = e.Datapath.packets;
          failed = e.Datapath.failed;
        })
  in
  report ~workload ~extra_attempted:(Traffic.packets w.Datapath.timed) ~extra_failed:oracle_failed
    samples

(* A run's seed expands into [sim_seeds] scenario seeds, run in whole
   rounds so every one gets the same number of episodes: one run averages
   over several traffic mixes instead of reporting the packet mix of a
   single one. *)
let sim_seeds = 8
let sim_seed ~seed i = Int64.add (Int64.mul seed 1000L) (Int64.of_int (i mod sim_seeds))

(* Building a scenario takes ~0.1 ms, so each episode builds it
   [setup_reps] times and keeps every time. *)
let setup_reps = 9

(* Room for a simulation's event times: 0.4M to 1.4M events per scenario. *)
let sim_events = 1 lsl 21

(* One simulation: build the scenario (topology, enclaves, policy push
   through the controller, traffic generators), then run it to the
   horizon and drain it.  Every event's wall time goes into [times].  An
   operation is a request flow. *)
let sim_episode ~seed ~times ~measure_live =
  let live0 = if measure_live then Datapath.live_words () else 0 in
  let builds =
    List.init setup_reps (fun _ ->
        let t0 = Clock.ns () in
        let sc = Sim.build ~eden:true ~seed () in
        (Clock.ns () - t0, sc))
  in
  let setups = List.map (fun (ns, _) -> float_of_int ns /. 1e9) builds in
  let sc = snd (List.hd (List.rev builds)) in
  (* Every pass starts from the same heap, so the collector does the same
     work at the same points and the windows line up. *)
  Gc.full_major ();
  Windows.reset times;
  let w0 = Gc.minor_words () in
  let prev = ref (Clock.ns ()) in
  let on_event () =
    let t = Clock.ns () in
    Windows.add times (t - !prev);
    prev := t
  in
  ignore (Sim.run sc ~on_event);
  ignore (Sim.drain sc ~on_event);
  let words = Gc.minor_words () -. w0 in
  let live_words = if measure_live then Some (Datapath.live_words () - live0) else None in
  ignore (Sys.opaque_identity sc);
  {
    group = seed;
    setups;
    windows = Windows.cut times;
    units = Sim.host_tx sc;
    words;
    live_words;
    attempted = Eden_workloads.Reqresp.launched sc.Sim.gen;
    failed = Sim.failed_flows sc;
  }

let sim_e2e ~workload ~seed ~seconds =
  let times = Windows.recorder sim_events in
  let samples =
    repeat ~seconds ~round:sim_seeds ~min:sim_seeds (fun i ->
        sim_episode ~seed:(sim_seed ~seed i) ~times ~measure_live:(i < sim_seeds))
  in
  report ~workload ~extra_attempted:0 ~extra_failed:0 samples
